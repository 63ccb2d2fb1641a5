"""Exact-arithmetic reference interpreter for quantized plans.

The native int8 engine's one numerically risky move is running integer
GEMMs on the float32 BLAS (:mod:`repro.qinfer.kernels` explains the
exactness certificate that licenses it). This module provides the check
for that claim: it executes the same quantized plan with the accumulation
done in int64 — *unconditionally* exact — while every other step runs
through the very same kernel builders the engine uses. Since the
epilogues (requantize, dequantize, clamps) are replayed with identical
ufunc sequences on identical operand dtypes, the reference and the native
engine must agree **bitwise**; any difference falsifies the certificate.
``compile_model(quantize="int8", validate=True)`` and the verify
invariants both enforce this equality.

Not a performance path — it interprets one batch at build-time cost.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..infer.kernels import BUILDERS
from ..infer.plan import Plan
from .kernels import QMAX, accumulation_chunks, gemm_matrices, quantize_bias

__all__ = ["run_reference"]


class _RefContext:
    """Stand-in for the engine's build context over plain per-run arrays."""

    def __init__(self, plan: Plan, n: int):
        self.plan = plan
        self.n = n
        self.max_batch = n
        self._arrays: dict[int, np.ndarray] = {}
        self._aliases: dict[int, callable] = {}
        self._scratch: dict[tuple[int, str], np.ndarray] = {}
        self._step = None

    def _bind(self, step):
        self._step = step

    def shape(self, vid: int) -> tuple[int, ...]:
        if vid in self.plan.constants:
            return tuple(self.plan.shapes[vid])
        return (self.n,) + tuple(self.plan.shapes[vid][1:])

    def getter(self, vid: int):
        if vid in self.plan.constants:
            const = np.asarray(self.plan.constants[vid], dtype=np.float32)
            return lambda n: const
        alias = self._aliases.get(vid)
        if alias is not None:
            return alias
        buf = self._arrays[vid]
        return lambda n: buf[:n]

    def out(self, vid: int) -> np.ndarray:
        buf = self._arrays.get(vid)
        if buf is None:
            dtype = self._step.params.get("out_dtype", "float32")
            buf = np.zeros(self.shape(vid), dtype=np.dtype(dtype))
            self._arrays[vid] = buf
        return buf

    def alias(self, vid: int, fn) -> None:
        self._aliases[vid] = fn

    def scratch(self, name: str, shape: tuple[int, ...], zero: bool = False,
                dtype=np.float32) -> np.ndarray:
        key = (self._step.output, name)
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.zeros(shape, dtype=dtype)
            self._scratch[key] = buf
        return buf


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
    o, c, kh, kw = wq.shape
    stride, padding = int(p["stride"]), int(p["padding"])
    w_scale = np.asarray(p["w_scale"], dtype=np.float64).reshape(-1)
    bias_q = quantize_bias(p.get("bias"), w_scale, float(p["in_scale"]))
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    emit_q8 = p.get("emit", "q8") == "q8"
    if emit_q8:
        oh, ow = out.shape[1], out.shape[2]
    else:
        oh, ow = out.shape[2], out.shape[3]

    def run(n):
        x = get(n).astype(np.int64)               # (n, H, W, C)
        h, w_in = x.shape[1], x.shape[2]
        if padding > 0:
            xp = np.zeros((n, h + 2 * padding, w_in + 2 * padding, c),
                          dtype=np.int64)
            xp[:, padding:padding + h, padding:padding + w_in, :] = x
        else:
            xp = x
        sn, sh, sw, sc = xp.strides
        patches = as_strided(
            xp, shape=(n, oh, ow, kh, kw, c),
            strides=(sn, sh * stride, sw * stride, sh, sw, sc),
            writeable=False)
        cols = patches.reshape(n * oh * ow, kh * kw * c).copy()
        if bias_q is not None:
            cols = np.concatenate(
                [cols, np.ones((cols.shape[0], 1), dtype=np.int64)], axis=1)
        acc = _exact_accumulate(cols, wq, bias_q)
        res = _finish(acc, p, w_scale, bool(p.get("relu", False)))
        if emit_q8:
            out[:n] = res.reshape(n, oh, ow, o)
        else:
            out[:n] = res.reshape(n, oh * ow, o).transpose(0, 2, 1).reshape(
                n, o, oh, ow)

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


def run_reference(plan: Plan, x) -> np.ndarray:
    """Interpret a (quantized or float) plan with exact GEMM accumulation."""
    x = np.asarray(x, dtype=np.float32)
    sample = tuple(plan.shapes[plan.input_id][1:])
    if x.shape == sample:
        x = x[None]
    n = x.shape[0]
    ctx = _RefContext(plan, n)
    ctx._arrays[plan.input_id] = x.astype(np.float32)
    for step in plan.steps:
        ctx._bind(step)
        builder = _EXACT.get(step.op) or BUILDERS[step.op]
        run = builder(step, ctx)
        if run is not None:
            run(n)
    return np.array(ctx.getter(plan.output_id)(n), copy=True)
