"""Semantic invariants of the pruning pipeline.

Three families of checks, each cheap enough to run on every commit:

* **Prune/mask equivalence** — zeroing a filter group's channels at its
  surgery point (:func:`repro.core.masking.group_mask_paths`) must produce
  bit-for-bit the same logits (to float32 tolerance) as physically removing
  those filters with :func:`repro.core.surgery.prune_groups`. Checked for
  every registry architecture family (VGG, ResNet, MLP) with randomly drawn
  victims, and for victims chosen by every baseline criterion in
  :data:`repro.baselines.SCORER_REGISTRY` — a scorer that produced
  out-of-range indices or a mismatched score vector fails here.

* **Taylor score ranges** — per Eq. 5–7 the per-class importance is an
  average of binarised indicators, so ``per_class ∈ [0, 1]`` and
  ``total = Σ_class ∈ [0, num_classes]`` element-wise. Violations mean the
  aggregation drifted from the paper.

* **Determinism** — two :class:`~repro.core.importance.ImportanceEvaluator`
  runs with the same seed must agree bit-identically; the whole pipeline is
  seed-deterministic by construction.

BN statistics are deliberately perturbed before the equivalence checks:
with freshly initialised statistics (zero mean, unit variance, zero beta)
masking the *conv* output happens to match surgery, and the checks would
silently pass on the buggy mask point.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.scorers import SCORER_REGISTRY, ScoringContext, build_scorer
from ..core.importance import ImportanceConfig, ImportanceEvaluator
from ..core.masking import FilterMasks
from ..core.surgery import group_sizes, prune_groups
from ..data import SyntheticConfig, SyntheticImageClassification
from ..models import MODEL_REGISTRY, build_model
from ..nn import BatchNorm2d, Module
from ..tensor import Tensor, no_grad

__all__ = [
    "InvariantResult", "REGISTRY_CASES", "INFER_CASES",
    "perturb_batchnorm_stats",
    "check_prune_mask_equivalence", "check_baseline_scorer_equivalence",
    "check_taylor_score_ranges", "check_importance_determinism",
    "check_compiled_inference_equivalence",
    "check_quantized_inference_equivalence",
    "run_invariants",
]


@dataclass
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)


# Tiny instantiations of each registry architecture family. Sized so a
# forward on a 12-image batch takes milliseconds; the invariants are
# width-independent.
REGISTRY_CASES: dict[str, dict] = {
    "vgg11": dict(num_classes=3, image_size=8, width=0.125, seed=0),
    "resnet20": dict(num_classes=3, image_size=8, width=0.25, seed=0),
    "mlp": dict(num_classes=3, image_size=8, width=0.125, seed=0),
}

_RTOL, _ATOL = 1e-4, 1e-5

# Every registry architecture at its smallest usable width — the compiled
# inference engine must reproduce eager logits on all of them.
INFER_CASES: dict[str, dict] = {
    name: dict(num_classes=3, image_size=8, seed=0,
               width=0.25 if name.startswith("resnet") else 0.125)
    for name in sorted(MODEL_REGISTRY)
}


def perturb_batchnorm_stats(model: Module, seed: int = 0) -> None:
    """Give every BN layer non-trivial statistics, as after real training.

    Freshly initialised BN (zero running mean, zero beta) maps zeroed
    channels to zero, hiding mask-point bugs; realistic statistics expose
    them.
    """
    rng = np.random.default_rng(seed)
    for _, module in model.named_modules():
        if isinstance(module, BatchNorm2d):
            module.running_mean += rng.normal(
                size=module.running_mean.shape).astype(np.float32)
            module.running_var *= np.exp(rng.normal(
                scale=0.3, size=module.running_var.shape)).astype(np.float32)
            module.bias.data = (module.bias.data + rng.normal(
                size=module.bias.data.shape)).astype(np.float32)


def _eval_batch(model_name: str, kwargs: dict, seed: int) -> np.ndarray:
    cfg = kwargs
    rng = np.random.default_rng(seed)
    shape = (6, cfg.get("in_channels", 3), cfg.get("image_size", 16),
             cfg.get("image_size", 16))
    return rng.normal(size=shape).astype(np.float32)


def _batch_sizes(batch: np.ndarray) -> tuple[int, ...]:
    """The full batch, one sample and a partial batch: an engine compiled
    at the full size must also serve sliced views of its arena."""
    n = batch.shape[0]
    return tuple(sorted({n, 1, n // 2 + 1}))


def _forward(model: Module, batch: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(batch if isinstance(batch, Tensor) else Tensor(batch)).data


def _random_victims(model: Module, groups, rng, fraction: float = 0.34):
    """Per-group victim indices: ~fraction of channels, at least one kept."""
    sizes = group_sizes(model, groups)
    victims = {}
    for group in groups:
        n = sizes[group.name]
        k = min(max(int(round(n * fraction)), 1), n - 1)
        if k <= 0:
            continue
        victims[group.name] = np.sort(rng.choice(n, size=k, replace=False))
    return victims


def _mask_vs_prune(model_name: str, kwargs: dict, victims: dict,
                   batch: np.ndarray, bn_seed: int) -> float:
    """Max |masked - pruned| logit deviation for one victim assignment."""
    masked_model = build_model(model_name, **kwargs)
    perturb_batchnorm_stats(masked_model, seed=bn_seed)
    groups = masked_model.prunable_groups()
    with FilterMasks.for_groups(masked_model, groups, victims):
        masked_out = _forward(masked_model, batch)

    pruned_model = copy.deepcopy(masked_model)
    pruned_groups = pruned_model.prunable_groups()
    sizes = group_sizes(pruned_model, pruned_groups)
    keep = {name: np.setdiff1d(np.arange(sizes[name]), idx)
            for name, idx in victims.items()}
    prune_groups(pruned_model, pruned_groups, keep)
    pruned_out = _forward(pruned_model, batch)

    np.testing.assert_allclose(masked_out, pruned_out, rtol=_RTOL, atol=_ATOL)
    return float(np.abs(masked_out - pruned_out).max())


def check_prune_mask_equivalence(seed: int = 0, trials: int = 2,
                                 cases: dict | None = None) -> InvariantResult:
    """Random-victim equivalence for every registry architecture family."""
    start = time.perf_counter()
    result = InvariantResult(name="prune_mask_equivalence", passed=True)
    worst = 0.0
    checked = 0
    for model_name, kwargs in (cases or REGISTRY_CASES).items():
        rng = np.random.default_rng(seed + 1)
        batch = _eval_batch(model_name, kwargs, seed)
        for trial in range(trials):
            probe = build_model(model_name, **kwargs)
            victims = _random_victims(probe, probe.prunable_groups(), rng)
            if not victims:
                continue
            try:
                worst = max(worst, _mask_vs_prune(
                    model_name, kwargs, victims, batch, bn_seed=seed + trial))
                checked += 1
            except AssertionError as exc:
                result.passed = False
                head = str(exc).strip().splitlines()[0] if str(exc) else ""
                result.failures.append(
                    f"{model_name} trial {trial}: {head}")
    result.detail = f"{checked} model/victim cases, worst |Δ|={worst:.2e}"
    result.seconds = time.perf_counter() - start
    return result


def check_baseline_scorer_equivalence(seed: int = 0,
                                      model_name: str = "vgg11",
                                      fraction: float = 0.3,
                                      scorers: list[str] | None = None
                                      ) -> InvariantResult:
    """Mask == prune when victims come from each baseline criterion.

    Exercises every scorer's score vector end-to-end: wrong lengths,
    out-of-range indices, or NaNs all surface as equivalence or selection
    failures.
    """
    from ..core.pruner import PercentageStrategy

    start = time.perf_counter()
    result = InvariantResult(name="baseline_scorer_equivalence", passed=True)
    kwargs = REGISTRY_CASES[model_name]
    data_cfg = SyntheticConfig(num_classes=kwargs["num_classes"],
                               image_size=kwargs["image_size"],
                               samples_per_class=8, seed=seed + 11)
    dataset = SyntheticImageClassification(data_cfg, train=True)
    ctx = ScoringContext(dataset=dataset, num_images=12, seed=seed)
    batch = _eval_batch(model_name, kwargs, seed)
    strategy = PercentageStrategy(fraction)
    worst = 0.0
    for scorer_name in (scorers if scorers is not None
                        else sorted(SCORER_REGISTRY)):
        try:
            model = build_model(model_name, **kwargs)
            perturb_batchnorm_stats(model, seed=seed)
            groups = model.prunable_groups()
            scores = build_scorer(scorer_name).scores(model, groups, ctx)
            for name, vec in scores.items():
                if not np.all(np.isfinite(vec)):
                    raise AssertionError(f"non-finite scores in group {name}")
            decision = strategy.select(
                scores, {g.name: g.min_channels for g in groups})
            if decision.is_empty():
                raise AssertionError("selected nothing at "
                                     f"fraction={fraction}")
            worst = max(worst, _mask_vs_prune(
                model_name, kwargs, decision.remove, batch, bn_seed=seed))
        except AssertionError as exc:
            result.passed = False
            head = str(exc).strip().splitlines()[0] if str(exc) else ""
            result.failures.append(f"{scorer_name}: {head}")
        except Exception as exc:
            result.passed = False
            result.failures.append(
                f"{scorer_name}: {type(exc).__name__}: {exc}")
    result.detail = (f"{len(scorers if scorers is not None else SCORER_REGISTRY)}"
                     f" scorers on {model_name}, worst |Δ|={worst:.2e}")
    result.seconds = time.perf_counter() - start
    return result


def _importance_report(seed: int, model_name: str = "vgg11"):
    kwargs = REGISTRY_CASES[model_name]
    model = build_model(model_name, **kwargs)
    data_cfg = SyntheticConfig(num_classes=kwargs["num_classes"],
                               image_size=kwargs["image_size"],
                               samples_per_class=6, seed=seed + 23)
    dataset = SyntheticImageClassification(data_cfg, train=True)
    evaluator = ImportanceEvaluator(
        model, dataset, kwargs["num_classes"],
        ImportanceConfig(images_per_class=4, seed=seed))
    paths = [g.conv for g in model.prunable_groups()]
    return evaluator.evaluate(paths), kwargs["num_classes"]


def check_taylor_score_ranges(seed: int = 0) -> InvariantResult:
    """Eq. 7 range invariant: per-class ∈ [0, 1], total ∈ [0, num_classes]."""
    start = time.perf_counter()
    result = InvariantResult(name="taylor_score_ranges", passed=True)
    report, num_classes = _importance_report(seed)
    for name, per_class in report.per_class.items():
        total = report.total[name]
        if per_class.shape != (total.shape[0], num_classes):
            result.failures.append(
                f"{name}: per_class shape {per_class.shape}, expected "
                f"({total.shape[0]}, {num_classes})")
            continue
        if np.any(per_class < 0.0) or np.any(per_class > 1.0):
            result.failures.append(
                f"{name}: per-class scores outside [0, 1] "
                f"(min={per_class.min():.3g}, max={per_class.max():.3g})")
        if np.any(total < 0.0) or np.any(total > num_classes + 1e-9):
            result.failures.append(
                f"{name}: total scores outside [0, {num_classes}] "
                f"(min={total.min():.3g}, max={total.max():.3g})")
        if not np.allclose(per_class.sum(axis=1), total, atol=1e-5):
            result.failures.append(
                f"{name}: total != sum of per-class scores")
    result.passed = not result.failures
    result.detail = f"{len(report.total)} groups, num_classes={num_classes}"
    result.seconds = time.perf_counter() - start
    return result


def check_importance_determinism(seed: int = 0) -> InvariantResult:
    """Same seed ⇒ bit-identical importance reports."""
    start = time.perf_counter()
    result = InvariantResult(name="importance_determinism", passed=True)
    first, _ = _importance_report(seed)
    second, _ = _importance_report(seed)
    for name in first.total:
        if not np.array_equal(first.total[name], second.total[name]):
            result.failures.append(f"{name}: total scores differ across runs")
        if not np.array_equal(first.per_class[name], second.per_class[name]):
            result.failures.append(f"{name}: per-class scores differ")
    result.passed = not result.failures
    result.detail = f"{len(first.total)} groups compared bit-exactly"
    result.seconds = time.perf_counter() - start
    return result


def check_compiled_inference_equivalence(seed: int = 0,
                                         quick: bool = False
                                         ) -> InvariantResult:
    """Compiled engine ≡ eager eval on every registry model, dense + pruned.

    The :mod:`repro.infer` pipeline (capture → BN folding → ReLU fusion →
    arena runtime) must reproduce eager logits to float32 tolerance. BN
    statistics are perturbed first; with fresh statistics, folding errors
    at the scale/shift step would cancel and hide.
    """
    from ..infer import compile_model

    start = time.perf_counter()
    result = InvariantResult(name="compiled_inference_equivalence",
                             passed=True)
    cases = ({k: INFER_CASES[k] for k in ("vgg11", "resnet20", "mlp")}
             if quick else INFER_CASES)
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    checked = 0
    for model_name, kwargs in cases.items():
        batch = _eval_batch(model_name, kwargs, seed)
        for variant in ("dense", "pruned"):
            try:
                model = build_model(model_name, **kwargs)
                perturb_batchnorm_stats(model, seed=seed)
                if variant == "pruned":
                    groups = model.prunable_groups()
                    victims = _random_victims(model, groups, rng)
                    sizes = group_sizes(model, groups)
                    keep = {name: np.setdiff1d(np.arange(sizes[name]), idx)
                            for name, idx in victims.items()}
                    prune_groups(model, groups, keep)
                model.eval()
                engine = compile_model(model, batch, validate=False)
                for n in _batch_sizes(batch):
                    eager_out = _forward(model, batch[:n])
                    compiled_out = engine.run(batch[:n])
                    np.testing.assert_allclose(
                        compiled_out, eager_out, rtol=_RTOL, atol=_ATOL,
                        err_msg=f"batch of {n}")
                    worst = max(worst, float(
                        np.abs(compiled_out - eager_out).max()))
                checked += 1
            except AssertionError as exc:
                result.passed = False
                head = "; ".join(str(exc).strip().splitlines()[:2])
                result.failures.append(f"{model_name}/{variant}: {head}")
            except Exception as exc:
                result.passed = False
                result.failures.append(
                    f"{model_name}/{variant}: {type(exc).__name__}: {exc}")
    result.detail = (f"{checked} model/variant cases at batches 1, partial "
                     f"and full, worst |Δ|={worst:.2e}")
    result.seconds = time.perf_counter() - start
    return result


def check_quantized_inference_equivalence(seed: int = 0,
                                          quick: bool = False
                                          ) -> InvariantResult:
    """Int8 weight codes ≡ their fp32 weights, through the ``.rplan``.

    ``compile_model(quantize="int8")`` stores conv and linear weights as
    int8 codes plus a scale and runs the fp32 kernels over them. For
    every registry architecture, dense and pruned, after a round trip
    through :func:`repro.qinfer.save_plan` / :func:`~repro.qinfer.load_plan`:

    * the loaded weights equal ``codes × scale`` bitwise, and the codes
      and scales equal the compiled plan's;
    * an engine built from the loaded plan equals the compiled int8
      engine bitwise, at batch 1 and at ``max_batch``;
    * it equals an fp32 engine built from the dequantized weights
      bitwise — int8 storage adds no arithmetic of its own; and
    * it agrees with eager float execution on ≥ 90% of top-1 decisions,
      the gate :meth:`ModelRegistry.deploy` applies to quantized swaps
      (``min_top1_agreement``).

    ``quick`` changes nothing: every case costs a few milliseconds.
    """
    import tempfile
    from pathlib import Path

    from ..infer import InferenceEngine, compile_model
    from ..infer.optimize import dequantize_weights
    from ..qinfer import load_plan, save_plan

    start = time.perf_counter()
    result = InvariantResult(name="quantized_inference_equivalence",
                             passed=True)
    rng = np.random.default_rng(seed + 5)
    checked = 0
    worst_top1 = 1.0
    with tempfile.TemporaryDirectory() as tmp:
        for model_name, kwargs in INFER_CASES.items():
            batch = _eval_batch(model_name, kwargs, seed)
            max_batch = batch.shape[0]
            for variant in ("dense", "pruned"):
                where = f"{model_name}/{variant}"
                try:
                    model = build_model(model_name, **kwargs)
                    perturb_batchnorm_stats(model, seed=seed)
                    if variant == "pruned":
                        groups = model.prunable_groups()
                        victims = _random_victims(model, groups, rng)
                        sizes = group_sizes(model, groups)
                        keep = {name: np.setdiff1d(np.arange(sizes[name]),
                                                   idx)
                                for name, idx in victims.items()}
                        prune_groups(model, groups, keep)
                    eager_out = _forward(model, batch)
                    engine = compile_model(model, batch, quantize="int8",
                                           validate=False)
                    path = Path(tmp) / f"{model_name}-{variant}.rplan"
                    save_plan(engine.plan, path)
                    loaded = load_plan(path)
                    result.failures.extend(
                        f"{where}: {problem}" for problem in
                        _weight_code_problems(engine.plan, loaded))
                    engines = {
                        "loaded": InferenceEngine(loaded, max_batch),
                        "fp32 over codes × scale": InferenceEngine(
                            dequantize_weights(loaded), max_batch)}
                    for n in (1, max_batch):
                        native = engine.run(batch[:n])
                        for label, other in engines.items():
                            if not np.array_equal(other.run(batch[:n]),
                                                  native):
                                result.failures.append(
                                    f"{where}: {label} engine differs "
                                    f"from the compiled int8 engine at "
                                    f"batch {n}")
                    top1 = float(np.mean(
                        np.argmax(native, -1)
                        == np.argmax(eager_out, -1)))
                    worst_top1 = min(worst_top1, top1)
                    if top1 < 0.9:
                        result.failures.append(
                            f"{where}: top-1 agreement with eager is "
                            f"{top1:.2f} < 0.9")
                    checked += 1
                except Exception as exc:
                    result.failures.append(
                        f"{where}: {type(exc).__name__}: {exc}")
    result.passed = not result.failures
    result.detail = (f"{checked} model/variant cases through the .rplan, "
                     f"bitwise at batch 1 and max_batch, "
                     f"worst top-1 {worst_top1:.2f}")
    result.seconds = time.perf_counter() - start
    return result


def _weight_code_problems(compiled, loaded) -> list[str]:
    """Where the loaded plan's weights are not the compiled plan's codes
    times their scales, bitwise."""
    from ..infer.optimize import dequantize_weights

    problems = []
    floats = dequantize_weights(loaded).steps
    for ours, theirs, flat in zip(compiled.steps, loaded.steps, floats):
        if "weight_q" not in ours.params:
            if ours.op in ("conv2d", "conv2d_relu", "linear", "linear_relu"):
                problems.append(f"{ours.describe()} stores float weights")
            continue
        codes, scale = theirs.params["weight_q"], theirs.params["w_scale"]
        if codes.dtype != np.int8 or scale.dtype != np.float32:
            problems.append(f"{ours.describe()} stores {codes.dtype} codes "
                            f"and {scale.dtype} scales")
        if not (np.array_equal(codes, ours.params["weight_q"])
                and np.array_equal(scale, ours.params["w_scale"])):
            problems.append(f"{ours.describe()}: codes or scales changed "
                            "through the .rplan")
        expected = codes.astype(np.float32) * scale
        weight = flat.params["weight"]
        if (weight.dtype != np.float32
                or weight.tobytes() != expected.tobytes()):
            problems.append(f"{ours.describe()}: loaded weight is not "
                            "codes × scale bitwise")
    return problems


def run_invariants(seed: int = 0, quick: bool = False) -> list[InvariantResult]:
    """Run the full invariant battery.

    ``quick`` trims trial counts but never skips an invariant family or a
    registry architecture — the acceptance bar is VGG + ResNet + MLP
    equivalence even in quick mode.
    """
    trials = 1 if quick else 2
    scorers = (["l1", "taylor", "random"] if quick
               else sorted(SCORER_REGISTRY))
    return [
        check_prune_mask_equivalence(seed=seed, trials=trials),
        check_baseline_scorer_equivalence(seed=seed, scorers=scorers),
        check_taylor_score_ranges(seed=seed),
        check_importance_determinism(seed=seed),
        check_compiled_inference_equivalence(seed=seed, quick=quick),
        check_quantized_inference_equivalence(seed=seed, quick=quick),
    ]
