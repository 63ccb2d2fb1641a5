"""Plan-level passes: BatchNorm folding, ReLU fusion, int8 weight storage.

The first two passes are peephole rewrites over the SSA step list of a
:class:`~repro.infer.plan.Plan`:

* **BatchNorm folding** — an eval-mode BatchNorm is the affine map
  ``y = x * s + t`` with ``s = gamma / sqrt(var + eps)`` and
  ``t = beta - mean * s``. When its sole producer is a Conv2d or Linear
  step consumed by nothing else, the affine map folds into that step's
  weights (``W' = W * s`` per output channel, ``b' = (b - mean) * s +
  beta``) and the BatchNorm step disappears.

* **ReLU fusion** — a ReLU whose input has fan-out 1 merges into its
  producer (``conv2d`` → ``conv2d_relu``, ``linear`` → ``linear_relu``,
  ``add`` → ``add_relu``, ``batchnorm`` → ``batchnorm_relu``), so the
  runtime applies the clamp in place on the producer's output buffer
  instead of launching a separate pass over the activation.

:func:`quantize_weights` then stores every conv and linear weight as
per-output-channel int8 codes plus a float32 scale, which the runtime
dequantizes once at engine build.

Passes never mutate the input plan; they rebuild the step list with fresh
``Step`` objects and remap downstream references to dropped values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plan import Plan, Step

__all__ = ["OptimizationReport", "fold_batchnorm", "fuse_relu",
           "optimize_plan", "quantize_weights", "dequantize_weights",
           "dequantize_weight"]


@dataclass
class OptimizationReport:
    """What the optimizer did to a plan."""

    folded_batchnorm: int = 0
    fused_relu: int = 0
    steps_before: int = 0
    steps_after: int = 0
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (f"{self.steps_before} -> {self.steps_after} steps "
                f"({self.folded_batchnorm} BN folded, "
                f"{self.fused_relu} ReLU fused)")


def _rebuild(plan: Plan, rewrite) -> tuple[Plan, int]:
    """Shared pass skeleton.

    ``rewrite(step, inputs, by_id, counts)`` returns either the id of an
    existing value that replaces this step's output (step dropped), or
    ``None`` to keep the step. ``by_id`` maps value id -> already-emitted
    new Step, which the rewrite may mutate (fold weights, change op).
    """
    counts = plan.use_counts()
    remap: dict[int, int] = {}
    by_id: dict[int, Step] = {}
    new_steps: list[Step] = []
    dropped = 0
    for step in plan.steps:
        inputs = tuple(remap.get(i, i) for i in step.inputs)
        replacement = rewrite(step, inputs, by_id, counts)
        if replacement is not None:
            remap[step.output] = replacement
            dropped += 1
            continue
        new_step = Step(step.op, inputs, step.output, dict(step.params),
                        step.source)
        new_steps.append(new_step)
        by_id[new_step.output] = new_step
    new_plan = plan.replace(
        steps=new_steps,
        output_id=remap.get(plan.output_id, plan.output_id))
    return new_plan, dropped


def fold_batchnorm(plan: Plan) -> tuple[Plan, int]:
    """Fold eval-mode BatchNorm steps into their producing conv/linear."""

    def rewrite(step, inputs, by_id, counts):
        if step.op != "batchnorm":
            return None
        producer = by_id.get(inputs[0])
        if producer is None or producer.op not in ("conv2d", "linear"):
            return None
        if counts.get(producer.output, 0) != 1:
            return None  # someone else reads the pre-BN activation
        p = step.params
        scale = (p["gamma"] / np.sqrt(p["var"] + p["eps"])).astype(np.float32)
        weight = producer.params["weight"]
        shape = (-1,) + (1,) * (weight.ndim - 1)
        bias = producer.params.get("bias")
        if bias is None:
            bias = np.zeros(weight.shape[0], dtype=np.float32)
        producer.params = dict(
            producer.params,
            weight=(weight * scale.reshape(shape)).astype(np.float32),
            bias=((bias - p["mean"]) * scale + p["beta"]).astype(np.float32))
        producer.source = f"{producer.source}+{step.source}".strip("+")
        return producer.output

    return _rebuild(plan, rewrite)


_FUSABLE = {"conv2d": "conv2d_relu", "linear": "linear_relu",
            "add": "add_relu", "batchnorm": "batchnorm_relu"}


def fuse_relu(plan: Plan) -> tuple[Plan, int]:
    """Merge fan-out-1 ReLU steps into their producers."""

    def rewrite(step, inputs, by_id, counts):
        if step.op != "relu":
            return None
        producer = by_id.get(inputs[0])
        if producer is None or producer.op not in _FUSABLE:
            return None
        if counts.get(producer.output, 0) != 1:
            return None  # the pre-activation value is read elsewhere
        producer.op = _FUSABLE[producer.op]
        return producer.output

    return _rebuild(plan, rewrite)


# ----------------------------------------------------------------------
# Int8 weight storage
# ----------------------------------------------------------------------

_WEIGHT_OPS = ("conv2d", "conv2d_relu", "linear", "linear_relu")


def _quantize_weight(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 weight codes and scales.

    Axis 0 indexes output channels; ``values ≈ q * scale`` with ``q`` on
    ``[-127, 127]`` and ``scale`` shaped to broadcast against ``values``.
    A non-finite weight raises (it would give its whole channel a
    non-finite scale), and an all-zero channel gets scale 1.0: its codes
    are exactly 0 under any finite scale.
    """
    values = np.asarray(values)
    if not np.isfinite(values).all():
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError(
            f"cannot quantize non-finite values ({bad} NaN/inf element(s); "
            "a non-finite weight would produce a non-finite scale)")
    qmax = 127
    amax = np.abs(values.reshape(values.shape[0], -1)).max(axis=1)
    shape = (-1,) + (1,) * (values.ndim - 1)
    scale = np.where(amax > 0, amax / qmax, 1.0).reshape(shape)
    q = np.clip(np.round(values / scale), -qmax, qmax).astype(np.int8)
    return q, scale.astype(np.float32)


def dequantize_weight(codes: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The float32 weight that int8 ``codes`` and their ``scale`` stand for.

    The one definition of ``codes × scale``: the runtime builds its GEMM
    matrices from it, so an engine over a quantized plan equals, bitwise,
    an fp32 engine over :func:`dequantize_weights` of that plan.
    """
    return (np.asarray(codes, dtype=np.float32)
            * np.asarray(scale, dtype=np.float32))


def _map_params(plan: Plan, rewrite) -> Plan:
    """A copy of ``plan`` whose step params are ``rewrite(op, params)``."""
    return plan.replace(steps=[
        Step(step.op, step.inputs, step.output,
             rewrite(step.op, dict(step.params)), step.source)
        for step in plan.steps])


def quantize_weights(plan: Plan) -> Plan:
    """Store every conv and linear weight as int8 codes plus a scale.

    Each ``weight`` param becomes ``weight_q`` (int8, per output channel)
    and ``w_scale`` (float32). Nothing else changes: the runtime
    dequantizes the codes once when it builds the engine and runs the
    fp32 kernels, so the plan's arithmetic stays float32 and only its
    storage shrinks to one byte per weight.
    """

    def rewrite(op, params):
        if op in _WEIGHT_OPS:
            params["weight_q"], params["w_scale"] = _quantize_weight(
                params.pop("weight"))
        return params

    return _map_params(plan, rewrite)


def dequantize_weights(plan: Plan) -> Plan:
    """Replace int8 weight codes by their float32 ``codes × scale``."""

    def rewrite(op, params):
        if "weight_q" in params:
            params["weight"] = dequantize_weight(params.pop("weight_q"),
                                                 params.pop("w_scale"))
        return params

    return _map_params(plan, rewrite)


def optimize_plan(plan: Plan, fold_bn: bool = True,
                  fuse: bool = True) -> tuple[Plan, OptimizationReport]:
    """Run the optimization pipeline; returns the new plan and a report."""
    report = OptimizationReport(steps_before=len(plan.steps))
    if fold_bn:
        plan, report.folded_batchnorm = fold_batchnorm(plan)
    if fuse:
        plan, report.fused_relu = fuse_relu(plan)
    report.steps_after = len(plan.steps)
    remaining = plan.op_counts().get("batchnorm", 0)
    if fold_bn and remaining:
        report.notes.append(
            f"{remaining} batchnorm steps kept (producer not conv/linear "
            "or pre-BN activation has fan-out > 1)")
    return plan, report
