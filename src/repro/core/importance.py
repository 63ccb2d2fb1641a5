"""Class-aware filter importance (Sec. III-B, Eq. 5–7).

Pipeline per filter group (one prunable layer):

1. For each class ``n``, draw ``M`` training images of that class.
2. Compute Taylor scores ``Θ'`` of every activation for every image
   (:class:`~repro.core.taylor.FusedTaylorScorer`, several classes per
   pass).
3. Binarise per image: ``s = 1 if Θ' > τ else 0``  (Eq. 5, τ = 1e-50).
4. Average over the M images → ``s_ave`` per activation       (Eq. 6).
5. Filter score w.r.t. class ``n`` = max over the filter's activations
   of ``s_ave``                                               (Eq. 7).
   Steps 3–5 run once per layer for all classes of a fused pass
   (:func:`aggregate_scores` over class segments).
6. Total importance = Σ_n score(filter, n) ∈ [0, num_classes].

A filter whose total score is small matters for few classes and is a
pruning candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset, EmptyDatasetError, per_class_images
from ..nn import Module
from .taylor import ExactZeroingEngine, FusedTaylorScorer

__all__ = ["ImportanceConfig", "ImportanceReport", "ImportanceEvaluator",
           "aggregate_scores", "sample_class_images", "scoring_engine",
           "score_classes"]

#: Cap on images per fused scoring pass. Chunk size never changes a score,
#: only wall-clock and memory. Measured on a 2-vCPU host, perfbench
#: ``prune`` workload (vgg11, 100 classes, M=2), median peak RSS: 76.8 MiB
#: for unfused per-class passes, 76.9 at a cap of 64, 79.2 at 128 and 84.3
#: at 256 (the benchmark allows +10%). Throughput did not gain above 64:
#: 3.39 runs/s at 64 (10 runs); 2.91 at 128 and 2.76 at 256 (3 runs each,
#: a later series). Train-bench scoring lane (resnet20, 100 classes,
#: M=10), serial best-of-5: 0.46 s at 64, 0.42 s at 128 and 256, 1.0 s
#: unfused.
_FUSE_IMAGE_CAP = 64


@dataclass(frozen=True)
class ImportanceConfig:
    """Hyperparameters of the importance evaluation.

    Attributes
    ----------
    images_per_class:
        ``M`` of Eq. 6; the paper uses 10 and reports that more images do
        not change the scores.
    tau:
        Activation-score threshold of Eq. 5 (paper: 1e-50 — effectively
        "any nonzero sensitivity counts"). Used when ``tau_mode`` is
        ``"absolute"``.
    tau_mode:
        ``"absolute"`` uses ``tau`` directly (the paper's definition).
        ``"quantile"`` sets the threshold per class evaluation to the
        ``tau_quantile``-quantile of all Taylor scores across the
        monitored layers. The paper's absolute 1e-50 relies on full-scale
        networks, where huge numbers of activations underflow to exactly
        zero; at reduced benchmark scale almost every activation carries
        *some* gradient, and the quantile mode restores the score spread
        the criterion needs while staying scale-free.
    tau_quantile:
        Quantile in (0, 1) for ``tau_mode="quantile"``.
    aggregation:
        ``"max"`` (Eq. 7) or ``"mean"`` — the latter is an ablation option
        exposed because the max is a deliberate design choice of the paper.
    use_exact:
        Use the exact zeroing engine instead of the Taylor approximation
        (validation only; drastically slower).
    seed:
        Seed for the per-class image sampling.
    """

    images_per_class: int = 10
    tau: float = 1e-50
    tau_mode: str = "absolute"
    tau_quantile: float = 0.25
    aggregation: str = "max"
    use_exact: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.images_per_class <= 0:
            raise ValueError("images_per_class must be positive")
        if self.aggregation not in ("max", "mean"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.tau_mode not in ("absolute", "quantile"):
            raise ValueError(f"unknown tau_mode {self.tau_mode!r}")
        if not 0.0 < self.tau_quantile < 1.0:
            raise ValueError("tau_quantile must be in (0, 1)")


@dataclass
class ImportanceReport:
    """Importance scores of every filter in every evaluated group.

    Attributes
    ----------
    total:
        ``{group name: (num_filters,) float array}`` — the per-filter total
        score (sum over classes), the quantity thresholded when pruning.
    per_class:
        ``{group name: (num_filters, num_classes) float array}`` — the
        per-class decomposition (each entry in [0, 1]).
    num_classes:
        Number of classes the scores were computed over.
    """

    total: dict[str, np.ndarray] = field(default_factory=dict)
    per_class: dict[str, np.ndarray] = field(default_factory=dict)
    num_classes: int = 0

    @classmethod
    def from_per_class(cls, per_class: dict[str, np.ndarray],
                       num_classes: int) -> "ImportanceReport":
        """Report whose totals are the row sums of ``per_class``."""
        return cls(total={p: m.sum(axis=1) for p, m in per_class.items()},
                   per_class=per_class, num_classes=num_classes)

    def all_scores(self) -> np.ndarray:
        """Concatenated total scores across groups (analysis/histograms)."""
        if not self.total:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate([self.total[g] for g in sorted(self.total)])

    def layer_means(self) -> dict[str, float]:
        """Average total score per group (Fig. 7 series)."""
        return {g: float(v.mean()) for g, v in self.total.items()}


def aggregate_scores(taylor_scores: np.ndarray, tau: float | list[float],
                     aggregation: str = "max",
                     counts: list[int] | None = None) -> np.ndarray:
    """Collapse per-image activation scores to per-filter class scores.

    Parameters
    ----------
    taylor_scores:
        ``(B, C, ...)`` array of Θ' values: first axis is the image, second
        the filter, the rest activation positions. The images are grouped
        by class, back to back.
    tau:
        Eq. 5 threshold: a scalar, or one value per class segment. It is
        compared in the scores' dtype.
    counts:
        Images per class segment, in row order (their sum is ``B``); a
        class with fewer than ``M`` images simply has a shorter segment.
        ``None`` is the single-class case: one segment of all ``B`` rows.

    Returns
    -------
    ``(K, C)`` array — row ``k`` is the filters' importance for segment
    ``k``'s class (Eq. 5–7) — or ``(C,)`` when ``counts`` is ``None``.

    The Eq. 6 average is taken as ``count / M`` per segment. That is
    exactly the mean of the float64 indicator: the indicator sum is an
    integer far below 2**53, so the pairwise float64 sum and the integer
    count are the same value, divided by the same float64 ``M``.
    """
    if taylor_scores.ndim < 2:
        raise ValueError("expected at least (M, C) scores")
    sizes = np.array([len(taylor_scores)] if counts is None else counts,
                     dtype=np.intp)
    if not (sizes > 0).all():
        raise ValueError(
            "aggregate_scores received scores for zero images (M=0); the "
            "Eq. 6 average would silently be NaN")
    if sizes.sum() != len(taylor_scores):
        raise ValueError(f"segment counts {sizes.tolist()} do not tile "
                         f"{len(taylor_scores)} score rows")
    per_row = (-1,) + (1,) * (taylor_scores.ndim - 1)
    thresholds = np.asarray(tau, dtype=taylor_scores.dtype)
    if thresholds.ndim:                                     # per segment
        thresholds = np.repeat(thresholds, sizes).reshape(per_row)
    starts = np.cumsum(sizes) - sizes
    hits = np.add.reduceat(taylor_scores > thresholds, starts, axis=0,
                           dtype=np.intp)
    s_ave = hits / sizes.astype(np.float64).reshape(per_row)  # Eq. 6
    if s_ave.ndim > 2:
        flat = s_ave.reshape(s_ave.shape[0], s_ave.shape[1], -1)
        s_ave = (flat.max(axis=2) if aggregation == "max"       # Eq. 7
                 else flat.mean(axis=2))
    return s_ave[0] if counts is None else s_ave


def sample_class_images(dataset: Dataset, num_classes: int,
                        images_per_class: int, seed: int,
                        ) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Draw the ``M`` images of every class up front (Sec. IV sampling).

    One rng seeded with ``seed`` is consumed class by class in class
    order, so the draws are those of a loop that samples and scores one
    class at a time.

    Returns
    -------
    ``(bank, entries)``: all classes' images stacked back to back, and one
    ``(class_index, start, stop)`` row slice of ``bank`` per class.
    """
    rng = np.random.default_rng(seed)
    arrays, entries, start = [], [], 0
    for class_index in range(num_classes):
        try:
            images = per_class_images(dataset, class_index,
                                      images_per_class, rng)
        except EmptyDatasetError as exc:
            raise EmptyDatasetError(
                f"importance evaluation needs samples of every class "
                f"(Eq. 6 averages over M images per class): {exc}"
            ) from exc
        arrays.append(images)
        entries.append((class_index, start, start + len(images)))
        start += len(images)
    return np.concatenate(arrays, axis=0), entries


def scoring_engine(model: Module, group_paths: list[str],
                   config: ImportanceConfig, input_shape: tuple[int, ...]):
    """The per-batch score engine ``config`` asks for."""
    if config.use_exact:
        return ExactZeroingEngine(model, group_paths)
    return FusedTaylorScorer(model, group_paths, input_shape)


def score_classes(engine, bank: np.ndarray,
                  entries: list[tuple[int, int, int]],
                  config: ImportanceConfig):
    """Yield ``(class_indices, {path: (K, F) class scores})`` per pass.

    ``path`` runs over the engine's ``layer_paths``. ``entries`` are
    ``(class_index, start, stop)`` row slices that tile ``bank`` back to
    back, as :func:`sample_class_images` returns them (or a run of
    consecutive ones), so every pass scores a zero-copy view of the bank.
    Consecutive classes share one ``engine.scores`` pass of at most
    :data:`_FUSE_IMAGE_CAP` images (at least one class per pass); one
    :func:`aggregate_scores` call per layer then thresholds and reduces
    all of the pass's class segments (Eq. 5–7, with a per-class τ in
    quantile mode). Row ``k`` of each block belongs to
    ``class_indices[k]``. Summed CE keeps every sample's gradient
    independent of its batch neighbours, so the chunking changes only
    wall-clock, never a score.
    """
    paths = engine.layer_paths
    per_pass = max(1, _FUSE_IMAGE_CAP // config.images_per_class)
    for i in range(0, len(entries), per_pass):
        chunk = entries[i:i + per_pass]
        base = chunk[0][1]
        classes = [c for c, _, _ in chunk]
        counts = [e - s for _, s, e in chunk]
        taylor = engine.scores(bank[base:chunk[-1][2]],
                               np.repeat(classes, counts))
        if config.tau_mode == "quantile":
            tau = [float(np.quantile(
                np.concatenate([taylor[p][s - base:e - base].reshape(-1)
                                for p in paths]), config.tau_quantile))
                   for _, s, e in chunk]
        else:
            tau = config.tau
        yield classes, {p: aggregate_scores(taylor[p], tau,
                                            config.aggregation, counts)
                        for p in paths}


class ImportanceEvaluator:
    """Compute an :class:`ImportanceReport` for a model on a dataset.

    Parameters
    ----------
    model:
        Network whose prunable groups are to be scored.
    dataset:
        Labelled training dataset (scores are always computed on training
        data, per Sec. IV).
    num_classes:
        Total class count of the task.
    config:
        Evaluation hyperparameters.
    """

    def __init__(self, model: Module, dataset: Dataset, num_classes: int,
                 config: ImportanceConfig | None = None):
        self.model = model
        self.dataset = dataset
        self.num_classes = num_classes
        self.config = config or ImportanceConfig()

    def evaluate(self, group_paths: list[str]) -> ImportanceReport:
        """Score the filters of the given producer layers.

        All classes' images are sampled first; then each fused pass of
        :func:`score_classes` scores several classes at once, for every
        layer, through a backward that computes no weight gradient.
        """
        cfg = self.config
        bank, entries = sample_class_images(
            self.dataset, self.num_classes, cfg.images_per_class, cfg.seed)
        engine = scoring_engine(self.model, group_paths, cfg, bank.shape[1:])
        per_class: dict[str, np.ndarray] = {}
        for classes, blocks in score_classes(engine, bank, entries, cfg):
            for path, rows in blocks.items():
                if path not in per_class:
                    per_class[path] = np.zeros(
                        (rows.shape[1], self.num_classes), dtype=np.float64)
                per_class[path][:, classes] = rows.T
        return ImportanceReport.from_per_class(per_class, self.num_classes)
