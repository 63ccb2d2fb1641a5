"""Filter-importance criteria from the literature the paper compares with.

Each scorer maps ``(model, groups, context)`` to per-filter scores where
**higher means more important** (keep). The shared iterative harness in
:mod:`repro.baselines.harness` turns any scorer into a pruning method, so
all baselines run under identical pruning/fine-tuning budgets — the setup
behind the paper's Fig. 6 comparison.

Implemented criteria and their sources:

=================  ====================================================
``L1NormScorer``    magnitude pruning, Li et al. [23]
``L2NormScorer``    squared-norm variant (DepGraph's base criterion [13])
``SSSScorer``       scaling-factor magnitude, Huang & Wang [27]
``HRankScorer``     feature-map rank, Lin et al. [19]
``APoZScorer``      1 − average-percentage-of-zeros, Hu et al. [24]
``TaylorScorer``    |activation · gradient|, Molchanov et al. [25]
``WeightGradScorer``|w · ∂L/∂w| per filter, Molchanov et al. [28]
``RandomScorer``    random control
=================  ====================================================

TPP [18] and OrthConv [31] differ from the paper's other comparators in the
*training* they prescribe rather than the scoring rule; they are composed in
:mod:`repro.baselines.methods` from these scorers plus regularised
fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..models.pruning_spec import FilterGroup
from ..nn import BatchNorm2d, Conv2d, Linear, Module, cross_entropy
from ..tensor import Tensor, no_grad
from ..core.hooks import ActivationRecorder
from ..core.taylor import TaylorScoreEngine

__all__ = [
    "ScoringContext", "FilterScorer", "L1NormScorer", "L2NormScorer",
    "SSSScorer", "HRankScorer", "APoZScorer", "TaylorScorer",
    "WeightGradScorer", "RandomScorer", "SCORER_REGISTRY", "build_scorer",
]


@dataclass
class ScoringContext:
    """Data made available to data-driven criteria.

    Attributes
    ----------
    dataset:
        Training dataset for activation/gradient statistics.
    num_images:
        Sample budget for data-driven scorers.
    seed:
        Randomness seed (sampling and the random control).
    """

    dataset: Dataset | None = None
    num_images: int = 64
    seed: int = 0

    def sample_batch(self) -> tuple[np.ndarray, np.ndarray]:
        if self.dataset is None:
            raise ValueError("this scorer needs a dataset in the ScoringContext")
        rng = np.random.default_rng(self.seed)
        n = len(self.dataset)
        idx = rng.choice(n, size=min(self.num_images, n), replace=False)
        return self.dataset.gather(idx)


class FilterScorer:
    """Base criterion; subclasses implement :meth:`scores`."""

    name = "base"

    def scores(self, model: Module, groups: list[FilterGroup],
               ctx: ScoringContext) -> dict[str, np.ndarray]:
        """Per-filter importance for each group (higher = keep)."""
        raise NotImplementedError

    @staticmethod
    def _producer_weight(model: Module, group: FilterGroup) -> np.ndarray:
        producer = model.get_module(group.conv)
        if not isinstance(producer, (Conv2d, Linear)):
            raise TypeError(f"group {group.name!r} has non-prunable producer")
        return producer.weight.data


class L1NormScorer(FilterScorer):
    """Σ|w| per filter (magnitude pruning, [23])."""

    name = "l1"

    def scores(self, model, groups, ctx):
        out = {}
        for g in groups:
            w = self._producer_weight(model, g)
            out[g.name] = np.abs(w.reshape(w.shape[0], -1)).sum(axis=1)
        return out


class L2NormScorer(FilterScorer):
    """‖w‖₂ per filter (DepGraph's default criterion, no grouping)."""

    name = "l2"

    def scores(self, model, groups, ctx):
        out = {}
        for g in groups:
            w = self._producer_weight(model, g)
            out[g.name] = np.sqrt((w.reshape(w.shape[0], -1) ** 2).sum(axis=1))
        return out


class SSSScorer(FilterScorer):
    """|scaling factor| per filter (SSS [27]).

    The batch-norm scale plays the role of the per-filter scaling factor;
    sparsity on the factors is induced during training/fine-tuning by the
    harness's optional scale-L1 penalty. Falls back to the weight norm when
    a group carries no batch norm (e.g. MLP groups).
    """

    name = "sss"

    def scores(self, model, groups, ctx):
        out = {}
        fallback = L2NormScorer()
        for g in groups:
            if g.bn is None:
                out[g.name] = fallback.scores(model, [g], ctx)[g.name]
                continue
            bn = model.get_module(g.bn)
            if not isinstance(bn, BatchNorm2d):
                raise TypeError(f"group {g.name!r}: {g.bn!r} is not BatchNorm2d")
            out[g.name] = np.abs(bn.weight.data)
        return out


class HRankScorer(FilterScorer):
    """Average rank of each filter's feature map over a batch (HRank [19])."""

    name = "hrank"

    def scores(self, model, groups, ctx):
        images, labels = ctx.sample_batch()
        paths = [g.conv for g in groups]
        was_training = model.training
        model.eval()
        try:
            with no_grad(), ActivationRecorder(model, paths) as rec:
                model(Tensor(images))
                out = {}
                for g in groups:
                    act = rec.activations[g.conv].data
                    if act.ndim == 2:
                        # Linear units have scalar outputs; rank degenerates
                        # to "is the activation nonzero".
                        out[g.name] = (np.abs(act) > 1e-12).mean(axis=0).astype(np.float64)
                        continue
                    m, c = act.shape[:2]
                    ranks = np.zeros(c, dtype=np.float64)
                    for f in range(c):
                        maps = act[:, f]          # (M, H, W)
                        ranks[f] = np.mean([np.linalg.matrix_rank(fm) for fm in maps])
                    out[g.name] = ranks
            return out
        finally:
            model.train(was_training)


class APoZScorer(FilterScorer):
    """1 − average percentage of zeros after the ReLU (network trimming [24]).

    Zeros of the post-ReLU activation are exactly the non-positive entries
    of the pre-ReLU tensor, so the batch-norm output (or the producer output
    when no BN exists) is inspected directly.
    """

    name = "apoz"

    def scores(self, model, groups, ctx):
        images, labels = ctx.sample_batch()
        paths = [g.bn if g.bn is not None else g.conv for g in groups]
        was_training = model.training
        model.eval()
        try:
            with no_grad(), ActivationRecorder(model, paths) as rec:
                model(Tensor(images))
                out = {}
                for g, path in zip(groups, paths):
                    act = rec.activations[path].data
                    axes = (0,) + tuple(range(2, act.ndim))
                    apoz = (act <= 0).mean(axis=axes)
                    out[g.name] = 1.0 - apoz
            return out
        finally:
            model.train(was_training)


class TaylorScorer(FilterScorer):
    """Mean |a · ∂L/∂a| per filter (Molchanov et al. [25]).

    Identical machinery to the paper's Eq. 4, but aggregated by averaging
    instead of the class-aware binarise/max/sum pipeline — the closest
    non-class-aware ancestor of the paper's method.
    """

    name = "taylor"

    def scores(self, model, groups, ctx):
        images, labels = ctx.sample_batch()
        engine = TaylorScoreEngine(model, [g.conv for g in groups])
        taylor = engine.scores(images, labels)
        out = {}
        for g in groups:
            t = taylor[g.conv]                       # (M, C, ...) or (M, F)
            axes = (0,) + tuple(range(2, t.ndim))
            out[g.name] = t.mean(axis=axes).astype(np.float64)
        return out


class WeightGradScorer(FilterScorer):
    """Mean |w · ∂L/∂w| within each filter (Molchanov et al. [28])."""

    name = "weightgrad"

    def scores(self, model, groups, ctx):
        images, labels = ctx.sample_batch()
        was_training = model.training
        model.eval()
        try:
            model.zero_grad()
            logits = model(Tensor(images))
            loss = cross_entropy(logits, labels, reduction="sum")
            loss.backward()
            out = {}
            for g in groups:
                producer = model.get_module(g.conv)
                w = producer.weight
                if w.grad is None:
                    raise RuntimeError(f"no gradient on {g.conv!r}")
                prod = np.abs(w.data * w.grad).reshape(w.shape[0], -1)
                out[g.name] = prod.mean(axis=1).astype(np.float64)
            model.zero_grad()
            return out
        finally:
            model.train(was_training)


class RandomScorer(FilterScorer):
    """Uniform random scores — the sanity-check control."""

    name = "random"

    def scores(self, model, groups, ctx):
        rng = np.random.default_rng(ctx.seed)
        out = {}
        for g in groups:
            w = self._producer_weight(model, g)
            out[g.name] = rng.random(w.shape[0])
        return out


SCORER_REGISTRY: dict[str, type[FilterScorer]] = {
    cls.name: cls for cls in (
        L1NormScorer, L2NormScorer, SSSScorer, HRankScorer, APoZScorer,
        TaylorScorer, WeightGradScorer, RandomScorer,
    )
}


def build_scorer(name: str) -> FilterScorer:
    """Instantiate a scorer by registry name."""
    try:
        return SCORER_REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown scorer {name!r}; available: "
                       f"{', '.join(sorted(SCORER_REGISTRY))}") from None
