"""Int8 kernel builders for the compiled inference runtime.

Execution model
---------------
Quantized activations are int8 **codes** stored channels-last (NHWC), the
memory layout of the float engine's 4-D values too (NCHW views over NHWC
memory, see :mod:`repro.infer.kernels`). The quantize/dequantize
boundaries that :func:`repro.infer.optimize.quantize_plan` inserts, and
the float-emitting conv and residual add, therefore read and write
contiguous NHWC memory and transpose nothing. The conv lowering is the
shared :func:`~repro.tensor.conv.im2col`: a *tall* GEMM whose rows are
output pixels and whose columns are ``(kh, kw, c)`` taps, the orientation
BLAS handles well across every layer shape this runtime serves; each
GEMM's output lands directly in the next layer's input layout. A 1x1
input under "same" padding runs the centre tap alone (padding codes are
0, so the integer sums are the whole kernel's).

Integer arithmetic on float hardware
------------------------------------
numpy has no fast integer GEMM (its integer matmul falls back to a
~40-50x slower non-BLAS loop), so the int8 GEMM runs on the float32 BLAS
over *integer-valued* float32 operands. That is exact, not approximate:
every product of two int8 codes has magnitude at most ``127 * 127 =
16129``, and float32 represents every integer of magnitude below ``2**24``
exactly, so any partial sum whose worst-case magnitude stays below
``2**24`` is computed without rounding **regardless of the summation
order BLAS chooses**. :func:`accumulation_chunks` certifies that bound
per layer from the actual quantized weights (``127 * sum_k |w_q[k, o]| +
|bias_q[o]|`` per output channel); when a layer exceeds it, the reduction
axis is split into certified chunks whose exact partial results are
summed in float64 (exact below ``2**53``). The certificate is what lets
:mod:`repro.qinfer.reference` demand *bitwise* equality from this engine.

Biases fold into the GEMM as an extra ones-column: ``bias_q =
rint(bias / (w_scale * in_scale))`` joins the weight matrix as its last
row, which is the standard int32-bias-at-scale-``s_w*s_a`` construction
(the rounding introduces at most ``0.5 * w_scale * in_scale`` absolute
error per output, accounted for in the documented tolerance).

The requantization epilogue (scale to the output grid, round, clamp, emit
int8) and the folded ReLU run as a short sequence of in-place ufunc
passes over the accumulator; monotone ops (max-pool, ReLU) act directly
on codes at unchanged scale because symmetric quantization commutes with
them.
"""

from __future__ import annotations

import numpy as np

from ..infer.kernels import (_build_global_avg_pool, _build_relu, _nhwc,
                             _rows, pool_builder, register_builders)
from ..tensor.conv import centre_tap_only, im2col

__all__ = ["Q_BUILDERS", "QMAX", "F32_EXACT_LIMIT", "accumulation_chunks",
           "gemm_matrices", "conv_cert_rows", "quantize_bias"]

QMAX = 127
# Integers with |value| < 2**24 are exactly representable in float32.
F32_EXACT_LIMIT = 2 ** 24


# ----------------------------------------------------------------------
# Exactness certificate
# ----------------------------------------------------------------------

def conv_cert_rows(wq_2d: np.ndarray, bias_q: np.ndarray | None) -> np.ndarray:
    """Per-K-row worst-case contribution table ``(K[+1], O)`` in int64.

    Row ``k`` holds ``127 * |w_q[k, o]|`` — the largest magnitude the
    products of that tap can contribute for any int8 input code. The
    bias row (if present) contributes ``|bias_q[o]|`` exactly once.
    """
    rows = QMAX * np.abs(wq_2d.astype(np.int64))
    if bias_q is not None:
        rows = np.concatenate(
            [rows, np.abs(bias_q.astype(np.int64))[None, :]], axis=0)
    return rows


def accumulation_chunks(cert_rows: np.ndarray) -> list[tuple[int, int]]:
    """Split the reduction axis so each chunk's float32 sums stay exact.

    Greedy scan over the per-row bound table: a chunk closes when adding
    the next row would let some output channel's worst-case partial sum
    reach ``2**24``. Any sub-sum of a chunk is bounded by the chunk's full
    sum of absolute terms, so the guarantee holds for every summation
    order BLAS may use. Returns ``[(0, K)]`` — one exact GEMM — for every
    realistic layer; multi-chunk splits only appear for adversarial
    weight/bias magnitudes.
    """
    k_total = cert_rows.shape[0]
    chunks: list[tuple[int, int]] = []
    start = 0
    running = np.zeros(cert_rows.shape[1], dtype=np.int64)
    for k in range(k_total):
        candidate = running + cert_rows[k]
        if start < k and int(candidate.max()) >= F32_EXACT_LIMIT:
            chunks.append((start, k))
            start = k
            running = cert_rows[k].copy()
        else:
            running = candidate
    chunks.append((start, k_total))
    return chunks


def gemm_matrices(wq_raw: np.ndarray, bias_q: np.ndarray | None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """GEMM weight matrix + certificate table for a quantized layer.

    Packs int8 conv codes ``(O, C, kh, kw)`` (rows ordered to match the
    NHWC im2col tap order ``(kh, kw, c)``) or linear codes ``(O, F)``
    into a float32 ``(K[+1], O)`` matrix of integer values, with the
    optional integer bias as the final (ones-column) row. Returns
    ``(wt, cert_rows)``; the certificate table feeds
    :func:`accumulation_chunks`.
    """
    wq_raw = np.asarray(wq_raw)
    if wq_raw.ndim == 4:
        o = wq_raw.shape[0]
        wq_ko = wq_raw.transpose(2, 3, 1, 0).reshape(-1, o)
    else:                                   # linear: (O, F) -> (F, O)
        wq_ko = wq_raw.T
    cert = conv_cert_rows(wq_ko, bias_q)
    wt = np.ascontiguousarray(wq_ko, dtype=np.float32)
    if bias_q is not None:
        if int(np.abs(bias_q).max(initial=0)) >= F32_EXACT_LIMIT:
            # Chunking cannot help here: the bias *code itself* would be
            # rounded by the float32 weight matrix. Only reachable with
            # degenerate (near-zero) scales; fail loudly.
            raise ValueError(
                "quantized bias code exceeds the exact float32 integer "
                "range (2**24); activation/weight scales are degenerate")
        wt = np.concatenate(
            [wt, bias_q.astype(np.float32)[None, :]], axis=0)
    return wt, cert


def quantize_bias(bias, w_scale, in_scale) -> np.ndarray | None:
    """Integer bias on the accumulator grid (TFLite-style int32 bias).

    ``bias_q = rint(bias / (w_scale * in_scale))`` — rounding costs at
    most ``0.5 * w_scale * in_scale`` absolute error per output channel.
    """
    if bias is None:
        return None
    acc_scale = np.asarray(w_scale, dtype=np.float64) * float(in_scale)
    return np.rint(np.asarray(bias, dtype=np.float64)
                   / acc_scale).astype(np.int64)


# ----------------------------------------------------------------------
# GEMM core shared by qconv2d / qlinear
# ----------------------------------------------------------------------

def _gemm_plan(ctx, p, wq_raw, rows_cap, emit, centre=None):
    """Columns, exact GEMM and epilogue of one quantized layer.

    Returns ``(cols, finish)``. The caller lowers its input into the
    leading columns of ``cols`` (a biased layer's last column holds
    ones); ``finish(rows, out_rows)`` then leaves the exact integer
    accumulation of the first ``rows`` rows in a float32 accumulator (the
    certified single-chunk fast path) or a float64 one (chunked), scales
    it, and writes int8 codes (``emit="q8"``: round, clamp, ReLU as a
    clamp at 0) or dequantized float32 into ``out_rows``.

    ``centre=p`` runs only conv tap ``(p, p)``; the certificate then
    covers those rows, while the accumulator keeps the whole kernel's
    dtype, the one :func:`~repro.qinfer.reference.run_reference` uses.
    """
    in_scale = float(p["in_scale"])
    w_scale = np.asarray(p["w_scale"], dtype=np.float64).reshape(-1)
    relu = bool(p.get("relu", False))
    bias_q = quantize_bias(p.get("bias"), w_scale, in_scale)
    wt, cert = gemm_matrices(wq_raw, bias_q)
    chunked = len(accumulation_chunks(cert)) > 1
    if centre is not None:
        wt, cert = gemm_matrices(
            wq_raw[:, :, centre:centre + 1, centre:centre + 1], bias_q)
    chunks = accumulation_chunks(cert)
    k_cols, o = wt.shape
    cols = ctx.scratch("cols", (rows_cap, k_cols))
    if bias_q is not None:
        cols[:, -1] = 1.0
    acc = ctx.scratch("acc", (rows_cap, o))
    total = (ctx.scratch("acc64", (rows_cap, o), dtype=np.float64)
             if chunked else acc)
    mult = w_scale * in_scale
    if emit == "q8":
        mult = mult / float(p["out_scale"])
    mult = mult.astype(total.dtype)

    def finish(rows, out_rows):
        a, y = total[:rows], out_rows[:rows]
        if total is acc:
            np.matmul(cols[:rows], wt, out=a)
        else:
            for i, (k0, k1) in enumerate(chunks):
                np.matmul(cols[:rows, k0:k1], wt[k0:k1], out=acc[:rows])
                if i == 0:
                    np.copyto(a, acc[:rows])
                else:
                    np.add(a, acc[:rows], out=a)
        if emit == "q8":
            np.multiply(a, mult, out=a)
            np.rint(a, out=a)
            np.clip(a, 0 if relu else -QMAX, QMAX, out=a)
            np.copyto(y, a, casting="unsafe")
        else:
            np.multiply(a, mult, out=y)
            if relu:
                np.maximum(y, 0.0, out=y)

    return cols, finish


# ----------------------------------------------------------------------
# qconv2d and qlinear
# ----------------------------------------------------------------------

def _build_qconv2d(step, ctx):
    p = step.params
    wq = np.asarray(p["weight_q"], dtype=np.int8)
    o, c, kh, kw = wq.shape
    stride, padding = int(p["stride"]), int(p["padding"])
    nb, h, w_in = ctx.shape(step.inputs[0])[:3]   # (nb, H, W, C) codes
    centre = None
    if centre_tap_only(h, w_in, kh, kw, padding):
        # A 1x1 input meets only the centre tap. Padding codes are 0, so
        # the integer sums are the whole kernel's.
        centre, kh, kw, stride, padding = padding, 1, 1, 1, 0
    emit = p.get("emit", "q8")
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    # q8: (nb, OH, OW, O) int8 codes; f32: an NCHW view over NHWC memory.
    # Either way the GEMM's (rows, O) output is the value's memory.
    out_rows = out.reshape(-1, o) if emit == "q8" else _rows(out)
    rows_cap = out_rows.shape[0]
    span = rows_cap // nb
    k = kh * kw * c
    cols, finish = _gemm_plan(ctx, p, wq, rows_cap, emit, centre)
    pad = None
    if padding > 0:
        pad = ctx.scratch(
            "pad", (nb, h + 2 * padding, w_in + 2 * padding, c),
            zero=True, dtype=np.int8)

    def run(n):
        rows = n * span
        im2col(get(n).transpose(0, 3, 1, 2), kh, kw, stride, padding,
               out=cols[:rows, :k], pad=pad)      # int8 -> f32 cast
        finish(rows, out_rows)

    return run


def _build_qlinear(step, ctx):
    p = step.params
    wq = np.asarray(p["weight_q"], dtype=np.int8)       # (O, F)
    f = wq.shape[1]
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    cols, finish = _gemm_plan(ctx, p, wq, out.shape[0], p.get("emit", "f32"))

    def run(n):
        np.copyto(cols[:n, :f], get(n))           # int8 -> f32 cast
        finish(n, out)

    return run


# ----------------------------------------------------------------------
# Quantize / dequantize boundaries
# ----------------------------------------------------------------------

def _build_quantize(step, ctx):
    inv = np.float32(1.0 / float(step.params["scale"]))
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    view = _nhwc if out.ndim == 4 else (lambda x: x)
    s = ctx.scratch("fq", out.shape)

    def run(n):
        np.multiply(view(get(n)), inv, out=s[:n])
        np.rint(s[:n], out=s[:n])
        np.clip(s[:n], -QMAX, QMAX, out=s[:n])
        np.copyto(out[:n], s[:n], casting="unsafe")

    return run


def _build_dequantize(step, ctx):
    scale = np.float32(step.params["scale"])
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    out = _nhwc(out) if out.ndim == 4 else out

    def run(n):
        np.multiply(get(n), scale, out=out[:n])

    return run


# ----------------------------------------------------------------------
# Residual add
# ----------------------------------------------------------------------

def _build_qadd(step, ctx, relu=False):
    p = step.params
    sa, sb = float(p["a_scale"]), float(p["b_scale"])
    emit = p.get("emit", "q8")
    ga = ctx.getter(step.inputs[0])
    gb = ctx.getter(step.inputs[1])
    out = ctx.out(step.output)

    if emit == "q8":
        so = float(p["out_scale"])
        ca, cb = np.float32(sa / so), np.float32(sb / so)
        f1 = ctx.scratch("fa", out.shape)
        f2 = ctx.scratch("fb", out.shape)

        def run(n):
            np.multiply(ga(n), ca, out=f1[:n])
            np.multiply(gb(n), cb, out=f2[:n])
            np.add(f1[:n], f2[:n], out=f1[:n])
            np.rint(f1[:n], out=f1[:n])
            if relu:
                np.clip(f1[:n], 0, QMAX, out=f1[:n])
            else:
                np.clip(f1[:n], -QMAX, QMAX, out=f1[:n])
            np.copyto(out[:n], f1[:n], casting="unsafe")

        return run

    out = _nhwc(out) if out.ndim == 4 else out    # f32 emit
    tmp = ctx.scratch("fb", out.shape)

    def run(n):
        np.multiply(ga(n), np.float32(sa), out=out[:n])
        np.multiply(gb(n), np.float32(sb), out=tmp[:n])
        np.add(out[:n], tmp[:n], out=out[:n])
        if relu:
            np.maximum(out[:n], 0.0, out=out[:n])

    return run


Q_BUILDERS = {
    "quantize": _build_quantize,
    "dequantize": _build_dequantize,
    "qconv2d": _build_qconv2d,
    "qlinear": _build_qlinear,
    # Max-pool and ReLU are monotone, so they act on codes at unchanged
    # scale through the float engine's builders.
    "qmax_pool2d": pool_builder(np.maximum, channels_last=True),
    "qrelu": _build_relu,
    "qadd": _build_qadd,
    "qadd_relu": lambda step, ctx: _build_qadd(step, ctx, relu=True),
    "qglobal_avg_pool": _build_global_avg_pool,
}

register_builders(Q_BUILDERS)
