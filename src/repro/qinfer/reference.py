"""Exact-arithmetic reference interpreter for quantized plans.

The native int8 engine's one numerically risky move is running integer
GEMMs on the float32 BLAS (:mod:`repro.qinfer.kernels` explains the
exactness certificate that licenses it). This module provides the check
for that claim: it executes the same quantized plan with the accumulation
done in int64 — *unconditionally* exact — inside an
:class:`~repro.infer.runtime.InferenceEngine` whose every other step runs
the very same kernel builders over the same arena layout. Since the
epilogues (requantize, dequantize, clamps) are replayed with identical
ufunc sequences on identical operand dtypes, the reference and the native
engine must agree **bitwise**; any difference falsifies the certificate.
``compile_model(quantize="int8", validate=True)`` and the verify
invariants both enforce this equality.

Not a performance path — it interprets one batch at build-time cost.
"""

from __future__ import annotations

import numpy as np

from ..infer.kernels import build_step
from ..infer.plan import Plan
from ..infer.runtime import InferenceEngine
from ..tensor.conv import im2col
from .kernels import QMAX, accumulation_chunks, gemm_matrices, quantize_bias

__all__ = ["run_reference"]


def _exact_accumulate(cols_int: np.ndarray, wq_raw, bias_q):
    """Integer GEMM in int64, then cast to the native accumulator dtype.

    Single-chunk certified layers use a float32 accumulator natively; the
    int64 result is below ``2**24`` there, so the cast is exact and the
    value matches the native GEMM bit for bit. Chunked layers accumulate
    in float64 natively (sums of exact integers), which again equals the
    exact int64 total.
    """
    wt_f32, cert = gemm_matrices(wq_raw, bias_q)
    chunks = accumulation_chunks(cert)
    acc_int = cols_int @ wt_f32.astype(np.int64)
    if len(chunks) == 1:
        return acc_int.astype(np.float32)
    return acc_int.astype(np.float64)


def _finish(acc, p, w_scale, relu):
    """Replay the native epilogue ufunc-for-ufunc on ``(rows, O)``."""
    if p.get("emit", "q8") == "q8":
        mult = (w_scale * float(p["in_scale"])
                / float(p["out_scale"])).astype(acc.dtype)
        np.multiply(acc, mult, out=acc)
        np.rint(acc, out=acc)
        if relu:
            np.clip(acc, 0, QMAX, out=acc)
        else:
            np.clip(acc, -QMAX, QMAX, out=acc)
        return acc.astype(np.int8)
    mult = (w_scale * float(p["in_scale"])).astype(acc.dtype)
    res = np.multiply(acc, mult).astype(np.float32)
    if relu:
        np.maximum(res, 0.0, out=res)
    return res


def _ref_qconv2d(step, ctx):
    p = step.params
    wq = np.asarray(p["weight_q"], dtype=np.int8)
    kh, kw = wq.shape[2:]
    stride, padding = int(p["stride"]), int(p["padding"])
    w_scale = np.asarray(p["w_scale"], dtype=np.float64).reshape(-1)
    bias_q = quantize_bias(p.get("bias"), w_scale, float(p["in_scale"]))
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    if p.get("emit", "q8") == "q8":
        out_h = out                               # (nb, OH, OW, O) codes
    else:
        out_h = out.transpose(0, 2, 3, 1)         # NHWC view of f32 NCHW

    def run(n):
        x = get(n).astype(np.int64).transpose(0, 3, 1, 2)
        cols = im2col(x, kh, kw, stride, padding)
        if bias_q is not None:
            cols = np.concatenate(
                [cols, np.ones((cols.shape[0], 1), dtype=np.int64)], axis=1)
        acc = _exact_accumulate(cols, wq, bias_q)
        res = _finish(acc, p, w_scale, bool(p.get("relu", False)))
        out_h[:n] = res.reshape((n,) + out_h.shape[1:])

    return run


def _ref_qlinear(step, ctx):
    p = step.params
    wq = np.asarray(p["weight_q"], dtype=np.int8)
    w_scale = np.asarray(p["w_scale"], dtype=np.float64).reshape(-1)
    bias_q = quantize_bias(p.get("bias"), w_scale, float(p["in_scale"]))
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def run(n):
        cols = get(n).astype(np.int64)
        if bias_q is not None:
            cols = np.concatenate(
                [cols, np.ones((n, 1), dtype=np.int64)], axis=1)
        acc = _exact_accumulate(cols, wq, bias_q)
        out[:n] = _finish(acc, p, w_scale, bool(p.get("relu", False)))

    return run


_EXACT = {"qconv2d": _ref_qconv2d, "qlinear": _ref_qlinear}


class _ReferenceEngine(InferenceEngine):
    """The engine's own arena and kernels, with int64 GEMM accumulation."""

    def _build(self, step, ctx):
        exact = _EXACT.get(step.op)
        return build_step(step, ctx) if exact is None else exact(step, ctx)


def run_reference(plan: Plan, x) -> np.ndarray:
    """Interpret a (quantized or float) plan with exact GEMM accumulation."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape == tuple(plan.shapes[plan.input_id][1:]):
        x = x[None]
    return _ReferenceEngine(plan, max_batch=x.shape[0]).run(x)
