"""Plan-level optimization passes: BatchNorm folding and ReLU fusion.

Both passes are peephole rewrites over the SSA step list of a
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

Passes never mutate the input plan; they rebuild the step list with fresh
``Step`` objects and remap downstream references to dropped values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plan import Plan, Step

__all__ = ["OptimizationReport", "fold_batchnorm", "fuse_relu",
           "optimize_plan", "QuantizeReport", "quantize_plan"]


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
# Int8 quantization rewrite (repro.qinfer)
# ----------------------------------------------------------------------

@dataclass
class QuantizeReport:
    """What :func:`quantize_plan` rewrote, and what it left in float."""

    quantized_conv: int = 0
    quantized_linear: int = 0
    kept_float: list[str] = field(default_factory=list)
    boundary_steps: int = 0
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (f"int8: {self.quantized_conv} conv + "
                f"{self.quantized_linear} linear quantized, "
                f"{len(self.kept_float)} kept float, "
                f"{self.boundary_steps} quantize/dequantize boundaries")


# Shape heuristic for which layers run int8. Tiny-channel convs lose to
# float32 BLAS because the int8->float32 im2col cast dominates the (small)
# GEMM; measured on this runtime, the break-even is C_in >= 16 generally,
# or C_in >= 8 once the spatial size has dropped to <= 8 (smaller cast,
# relatively larger GEMM). The first conv (C_in = 3) is never quantized,
# which also matches standard deployment practice of keeping the stem in
# higher precision.
def _conv_worth_quantizing(c_in: int, h_in: int) -> bool:
    return c_in >= 16 or (c_in >= 8 and h_in <= 8)


_MIN_LINEAR_FEATURES = 32

_QCONV_OPS = {"conv2d": False, "conv2d_relu": True}
_QLINEAR_OPS = {"linear": False, "linear_relu": True}


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


def _nhwc(shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(shape) == 4:
        n, c, h, w = shape
        return (n, h, w, c)
    return tuple(shape)


def quantize_plan(plan: Plan, scales: dict[int, float],
                  ) -> tuple[Plan, QuantizeReport]:
    """Rewrite conv/linear steps of an optimized float plan into int8 ops.

    ``scales`` maps value ids of the float plan to per-tensor activation
    quantization scales (from :func:`repro.qinfer.calibrate.collect_scales`).
    The rewrite assigns each value a domain: a step runs quantized when
    its inputs can be codes and the shape heuristic says int8 wins;
    ``quantize``/``dequantize`` boundary steps are inserted only where
    the domain actually changes. Quantized 4-D activations live in NHWC
    (``plan.shapes`` records the permuted shape) so the int8 conv GEMM
    output is directly the next conv's input layout. Monotone ops
    (max-pool, ReLU) pass codes through at unchanged scale; residual adds
    requantize onto the output grid; global average pooling consumes
    codes and emits float32.

    BatchNorm must already be folded (run :func:`optimize_plan` first) —
    a remaining ``batchnorm`` step simply stays in float here, costing a
    dequantize boundary.
    """
    report = QuantizeReport()
    shapes = dict(plan.shapes)
    # Codes pass through max-pool/ReLU unchanged, so those outputs MUST
    # carry their input's scale — an independently observed (smaller)
    # range would silently re-interpret the codes on a different grid.
    scales = dict(scales)
    for step in plan.steps:
        if step.op in ("max_pool2d", "relu") and step.inputs[0] in scales:
            scales[step.output] = scales[step.inputs[0]]
    consumers: dict[int, list[Step]] = {}
    for step in plan.steps:
        for vid in step.inputs:
            consumers.setdefault(vid, []).append(step)

    # Pass 1: which conv/linear steps run int8 (keyed by output vid).
    quant: set[int] = set()
    for step in plan.steps:
        in_vid = step.inputs[0] if step.inputs else None
        if step.op in _QCONV_OPS:
            c_in, h_in = shapes[in_vid][1], shapes[in_vid][2]
            if _conv_worth_quantizing(c_in, h_in) and in_vid in scales:
                quant.add(step.output)
            else:
                report.kept_float.append(step.describe())
        elif step.op in _QLINEAR_OPS:
            if shapes[in_vid][1] >= _MIN_LINEAR_FEATURES and in_vid in scales:
                quant.add(step.output)
            else:
                report.kept_float.append(step.describe())

    # Pass 2 (forward): which values *can* exist as int8 codes.
    capable: dict[int, bool] = {}
    for step in plan.steps:
        out = step.output
        if step.op in _QCONV_OPS or step.op in _QLINEAR_OPS:
            capable[out] = out in quant and out in scales
        elif step.op in ("max_pool2d", "relu"):
            capable[out] = capable.get(step.inputs[0], False)
        elif step.op in ("add", "add_relu"):
            capable[out] = (capable.get(step.inputs[0], False)
                            and capable.get(step.inputs[1], False)
                            and out in scales)
        else:
            capable[out] = False

    # Pass 3 (reverse, memoized): should the producer emit codes? Only
    # when *every* consumer reads codes — with mixed consumers the value
    # is emitted float and code-consumers requantize it themselves.
    want_q8: dict[int, bool] = {}

    def _wants(vid: int) -> bool:
        cached = want_q8.get(vid)
        if cached is not None:
            return cached
        want_q8[vid] = False            # break cycles conservatively
        ok = capable.get(vid, False) and vid != plan.output_id
        if ok:
            users = consumers.get(vid, [])
            ok = bool(users)
            for user in users:
                if user.op in _QCONV_OPS or user.op in _QLINEAR_OPS:
                    ok = ok and user.output in quant
                elif user.op in ("max_pool2d", "relu"):
                    ok = ok and _wants(user.output)
                elif user.op == "global_avg_pool":
                    pass
                elif user.op in ("add", "add_relu"):
                    ok = ok and capable.get(user.output, False)
                else:
                    ok = False
                if not ok:
                    break
        want_q8[vid] = ok
        return ok

    # Pass 4: emission.
    next_vid = max(shapes) + 1
    new_steps: list[Step] = []
    q8_of: dict[int, int] = {}
    f32_avail = {plan.input_id} | set(plan.constants)

    def fresh() -> int:
        nonlocal next_vid
        next_vid += 1
        return next_vid - 1

    def ensure_q8(vid: int) -> int:
        qv = q8_of.get(vid)
        if qv is None:
            qv = fresh()
            new_steps.append(Step("quantize", (vid,), qv,
                                  {"scale": float(scales[vid]),
                                   "out_dtype": "int8"}, "qinfer"))
            shapes[qv] = _nhwc(shapes[vid])
            q8_of[vid] = qv
            report.boundary_steps += 1
        return qv

    def ensure_f32(vid: int) -> int:
        if vid not in f32_avail:
            new_steps.append(Step("dequantize", (q8_of[vid],), vid,
                                  {"scale": float(scales[vid])}, "qinfer"))
            f32_avail.add(vid)
            report.boundary_steps += 1
        return vid

    for step in plan.steps:
        op, out = step.op, step.output
        if out in quant:
            relu = op.endswith("_relu")
            in_vid = step.inputs[0]
            emit_q8 = _wants(out)
            qin = ensure_q8(in_vid)
            wq, w_scale = _quantize_weight(step.params["weight"])
            params = {"weight_q": wq,
                      "w_scale": w_scale.reshape(-1),
                      "bias": step.params.get("bias"),
                      "in_scale": float(scales[in_vid]),
                      "relu": relu,
                      "emit": "q8" if emit_q8 else "f32"}
            if op in _QCONV_OPS:
                qop = "qconv2d"
                params["stride"] = step.params["stride"]
                params["padding"] = step.params["padding"]
                report.quantized_conv += 1
            else:
                qop = "qlinear"
                report.quantized_linear += 1
            if emit_q8:
                qout = fresh()
                params["out_scale"] = float(scales[out])
                params["out_dtype"] = "int8"
                shapes[qout] = _nhwc(shapes[out])
                q8_of[out] = qout
            else:
                qout = out
                f32_avail.add(out)
            new_steps.append(Step(qop, (qin,), qout, params, step.source))
        elif (op in ("max_pool2d", "relu")
              and step.inputs[0] in q8_of and _wants(out)):
            qout = fresh()
            if op == "max_pool2d":
                params = {"kernel": step.params["kernel"],
                          "stride": step.params["stride"],
                          "out_dtype": "int8"}
                qop = "qmax_pool2d"
            else:
                params = {"out_dtype": "int8"}
                qop = "qrelu"
            shapes[qout] = _nhwc(shapes[out])
            q8_of[out] = qout
            new_steps.append(
                Step(qop, (q8_of[step.inputs[0]],), qout, params,
                     step.source))
        elif (op in ("add", "add_relu")
              and all(v in q8_of for v in step.inputs)
              and capable.get(out, False)):
            a, b = step.inputs
            emit_q8 = _wants(out)
            params = {"a_scale": float(scales[a]),
                      "b_scale": float(scales[b]),
                      "emit": "q8" if emit_q8 else "f32"}
            if emit_q8:
                qout = fresh()
                params["out_scale"] = float(scales[out])
                params["out_dtype"] = "int8"
                shapes[qout] = _nhwc(shapes[out])
                q8_of[out] = qout
            else:
                qout = out
                f32_avail.add(out)
            new_steps.append(
                Step("qadd_relu" if op == "add_relu" else "qadd",
                     (q8_of[a], q8_of[b]), qout, params, step.source))
        elif op == "global_avg_pool" and step.inputs[0] in q8_of:
            in_vid = step.inputs[0]
            new_steps.append(
                Step("qglobal_avg_pool", (q8_of[in_vid],), out,
                     {"scale": float(scales[in_vid])}, step.source))
            f32_avail.add(out)
        else:
            inputs = tuple(
                ensure_f32(v) if v in q8_of and v not in f32_avail else v
                for v in step.inputs)
            params = dict(step.params)
            if op in _QCONV_OPS or op in _QLINEAR_OPS:
                # Weight-only quantization for layers kept in float:
                # executes at full float32 speed (codes are dequantized
                # once into the GEMM matrix at engine build), but the
                # artifact stores one byte per weight like every other
                # layer. Error is the per-channel int8 weight grid only.
                params["weight_q"], params["w_scale"] = _quantize_weight(
                    params.pop("weight"))
            new_steps.append(Step(op, inputs, out, params, step.source))
            f32_avail.add(out)

    if plan.output_id not in f32_avail:
        ensure_f32(plan.output_id)
    if not (report.quantized_conv or report.quantized_linear):
        report.notes.append(
            "no layer met the int8 shape heuristic; plan left in float")
    new_plan = plan.replace(steps=new_steps, shapes=shapes)
    return new_plan, report


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
