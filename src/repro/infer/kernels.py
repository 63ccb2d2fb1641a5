"""Kernel builders: compile plan steps into zero-allocation programs.

Each builder receives a :class:`~repro.infer.plan.Step` plus a build
context and returns ``bind(n)``. ``bind(n)`` computes, once, every view
the step needs at batch size ``n`` (input and output slices, GEMM row
slices, pad interiors, ``im2col`` window views, pooling tap slices) and
returns ``run()``, a zero-argument closure that computes the step for
the first ``n`` rows and writes the step's output buffer in place. The
engine binds each batch size on first use and keeps the bound program, so
a steady-state run does no slicing and no view building, only the
arithmetic. All large arrays (activations, im2col row matrices,
padded-image scratch) are preallocated at engine build time at the
engine's batch capacity; a steady-state ``run`` performs no large
allocations. View-only ops (``flatten``, ``reshape``) return ``None`` and
register an alias instead of a buffer.

The plan input is a buffer like any other: the engine copies the caller's
batch into it on every run. One kind of value cannot be bound: an alias
registered with ``copies=True`` (a reshape whose input's memory order
allows no view, such as the NCHW flatten of NHWC memory) is a new array
on every read. The context records, at build time, which steps read one;
the engine binds those steps again on every call.

Layout: plan shapes are NCHW, but every 4-D float value the plan computes
is NHWC memory behind an NCHW view (:func:`alloc_value`). Elementwise,
batch-norm, concat, pad and reduction kernels index the views and never
see the difference. A convolution is one tall GEMM whose ``(n·OH·OW, O)``
output rows *are* that memory (a 1x1 input under "same" padding runs the
centre tap alone), pooling is separable (window rows, then window
columns, of NHWC memory), and a linear layer fed by a flatten reads the
NHWC memory directly through weight columns permuted at build time. The
plan input alone stays NCHW, as the caller passes it; a stride-1
convolution reads it row-padded, each tap one contiguous run of padded
image rows.

The context object (``ctx``) provides:

``getter(vid)``
    ``callable(n)`` producing the value — a ``buf[:n]`` slice for batched
    values, the raw array for baked constants, or a registered alias view.
``out(vid)`` / ``alias(vid, fn, copies=False)``
    Allocate the output buffer for a value, or register it as a view (a
    copy made on every read under ``copies``).
``scratch(name, shape, zero=False)``
    Named preallocated scratch array owned by this step.
``shape(vid)``
    Capacity shape (batch axis already rescaled to ``max_batch``).
``producer(vid)``
    The step computing a value, or None for the input and constants.

The context is for build time: a builder may call a getter there to
read a shape or a layout, but the views its kernel uses come from
``bind``, and it asks only for the getters of values it reads. Closures
never use augmented assignment on closed-over buffers (``buf += x``
rebinds locally); they call the ufunc with ``out=`` instead.
"""

from __future__ import annotations

import numpy as np

from ..tensor.conv import centre_tap_only, window_view
from .optimize import dequantize_weight

__all__ = ["BUILDERS", "alloc_value", "build_step"]


def alloc_value(shape: tuple[int, ...]) -> np.ndarray:
    """Zeroed float32 buffer for one computed plan value.

    A 4-D value is NHWC memory behind an NCHW view: plan shapes and every
    kernel's indexing stay NCHW, while convolutions and pooling read and
    write contiguous channels. Other values (2-D features) are plain
    C-contiguous arrays.
    """
    if len(shape) == 4:
        n, c, h, w = shape
        return np.zeros((n, h, w, c), np.float32).transpose(0, 3, 1, 2)
    return np.zeros(shape, np.float32)


def _nhwc(x: np.ndarray) -> np.ndarray:
    """NHWC view of an NCHW-shaped array; C-contiguous for arena values."""
    return x.transpose(0, 2, 3, 1)


def _is_nhwc(x: np.ndarray) -> bool:
    """Whether a 4-D array is NHWC memory. Lowerings choose their memory
    access order by it; their results do not depend on it."""
    return x.ndim == 4 and _nhwc(x).flags.c_contiguous


def _rows(buf: np.ndarray) -> np.ndarray:
    """``(N*H*W, C)`` row view of a 4-D arena value (never a copy)."""
    return _nhwc(buf).reshape(-1, buf.shape[1], copy=False)


def _layer_weight(params) -> np.ndarray:
    """Float weight of a conv/linear step.

    Steps of an int8 plan (see :func:`repro.infer.optimize.quantize_weights`)
    carry ``weight_q`` + ``w_scale`` instead of ``weight``; they are
    dequantized here, once, at engine build time.
    """
    w = params.get("weight")
    if w is None:
        w = dequantize_weight(params["weight_q"], params["w_scale"])
    return w


# ----------------------------------------------------------------------
# Convolution and linear layers
# ----------------------------------------------------------------------

def _build_conv2d(step, ctx, relu=False):
    """One tall GEMM ``cols @ (K, O)`` per run, the bias a ones column.

    A 1x1 input under "same" padding meets only the centre tap, so it
    runs as an unpadded 1x1 conv over ``W[:, :, p, p]``. Otherwise:

    * An NHWC input, or a strided conv, is lowered by copying the
      :func:`~repro.tensor.conv.window_view` of its ``(kh, kw, c)`` taps
      into the GEMM's rows (an input of another layout first through a
      preallocated channels-last scratch, a padded one through a zeroed
      scratch whose interior it fills). The GEMM's ``(n·OH·OW, O)`` rows
      are the output value's NHWC memory, and ReLU runs in place on them.
    * A stride-1 conv on any other input (the NCHW plan input, whose few
      channels would make each ``im2col`` tap copy move ``C`` floats) is
      row-padded. Each image is copied into a zeroed ``(C, H+2p+1,
      W+2p)`` scratch, whose spare row keeps the last tap in bounds, so
      every ``(c, kh, kw)`` tap of a sample is one contiguous run of
      ``OH·(W+2p)`` floats. The GEMM over those runs computes every row
      position at the padded width, and the ReLU pass (or a copy) drops
      the ``kw-1`` wrap-around columns as it writes the output.
    """
    p = step.params
    w = np.asarray(_layer_weight(p), dtype=np.float32)
    stride, padding = int(p["stride"]), int(p["padding"])
    h, w_in = ctx.shape(step.inputs[0])[2:]
    if centre_tap_only(h, w_in, *w.shape[2:], padding):
        w = w[:, :, padding:padding + 1, padding:padding + 1]
        stride, padding = 1, 0
    o, c, kh, kw = w.shape
    bias = p.get("bias")
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    nb, _, oh, ow = out.shape
    k = c * kh * kw
    k_cols = k + (1 if bias is not None else 0)   # bias: a ones column

    nhwc = _is_nhwc(get(nb))
    if stride == 1 and not nhwc:
        wp = w_in + 2 * padding
        span = oh * wp
        wk = w.reshape(o, k).T
        cols_t = ctx.scratch("cols", (k_cols, nb * span))
        cols = cols_t.T
        img = ctx.scratch("pad", (nb, c, h + 2 * padding + 1, wp), zero=True)
        sn, sc, sh, sw = img.strides
        taps = np.ndarray((c, kh, kw, nb, span), img.dtype, img, 0,
                          (sc, sh, sw, sn, sw))
        tap_cols = cols_t[:k].reshape(c, kh, kw, nb, span)
        wide = ctx.scratch("wide", (nb, oh, wp, o))
        prod = wide.reshape(-1, o)
        dst = _nhwc(out)

        def lowering(n):
            x = get(n)
            interior = img[:n, :, padding:padding + h, padding:padding + w_in]
            tap_src, tap_dst = taps[:, :, :, :n], tap_cols[:, :, :, :n]
            kept, y = wide[:n, :, :ow], dst[:n]

            def lower():
                np.copyto(interior, x)
                np.copyto(tap_dst, tap_src)

            def finish():
                if relu:
                    np.maximum(kept, 0.0, out=y)
                else:
                    np.copyto(y, kept)

            return lower, finish
    else:
        span = oh * ow
        wk = w.transpose(2, 3, 1, 0).reshape(k, o)
        cols = ctx.scratch("cols", (nb * span, k_cols))
        pad = (ctx.scratch("pad", (nb, h + 2 * padding, w_in + 2 * padding,
                                   c), zero=True)
               if padding > 0 or not nhwc else None)
        prod = _rows(out)

        def lowering(n):
            x = get(n)
            if pad is None:
                xh = np.ascontiguousarray(_nhwc(x))
            else:
                xh = pad[:n]
                interior = xh[:, padding:padding + h, padding:padding + w_in]
                x_nhwc = _nhwc(x)
            windows = window_view(xh, kh, kw, stride)
            rows = cols[:n * span, :k].reshape(windows.shape, copy=False)
            y = prod[:n * span]

            def lower():
                if pad is not None:
                    np.copyto(interior, x_nhwc)
                np.copyto(rows, windows)

            def finish():
                if relu:
                    np.maximum(y, 0.0, out=y)

            return lower, finish

    if bias is not None:
        wk = np.concatenate([wk, np.asarray(bias, np.float32)[None]])
        cols[:, k] = 1.0
    wk = np.ascontiguousarray(wk, dtype=np.float32)

    def bind(n):
        lower, finish = lowering(n)
        a, y = cols[:n * span], prod[:n * span]

        def run():
            lower()
            np.matmul(a, wk, out=y)
            finish()

        return run

    return bind


def _build_linear(step, ctx, relu=False):
    p = step.params
    w = np.asarray(_layer_weight(p), dtype=np.float32)
    bias = p.get("bias")
    b = None if bias is None else np.asarray(bias, dtype=np.float32)
    out = ctx.out(step.output)
    flat = ctx.producer(step.inputs[0])
    get = None
    if (flat is not None and flat.op == "flatten"
            and int(flat.params["start_dim"]) == 1):
        # Read a flattened NHWC value in memory order, a free view, with
        # the weight columns permuted to match, instead of the flatten's
        # per-run NCHW copy.
        src = ctx.getter(flat.inputs[0])
        if _is_nhwc(src(out.shape[0])):
            _, c, h, w_in = ctx.shape(flat.inputs[0])
            w = w[:, np.arange(c * h * w_in).reshape(c, h, w_in)
                  .transpose(1, 2, 0).reshape(-1)]
            get = lambda n: _nhwc(src(n)).reshape(n, -1)  # noqa: E731
    if get is None:
        get = ctx.getter(step.inputs[0])
    wt = np.ascontiguousarray(w.T)      # (in, out)

    def bind(n):
        x, y = get(n), out[:n]

        def run():
            np.matmul(x, wt, out=y)
            if b is not None:
                np.add(y, b, out=y)
            if relu:
                np.maximum(y, 0.0, out=y)

        return run

    return bind


def _build_batchnorm(step, ctx, relu=False):
    p = step.params
    scale = (np.asarray(p["gamma"], dtype=np.float64)
             / np.sqrt(np.asarray(p["var"], dtype=np.float64) + p["eps"]))
    shift = np.asarray(p["beta"], dtype=np.float64) - p["mean"] * scale
    scale = scale.astype(np.float32).reshape(1, -1, 1, 1)
    shift = shift.astype(np.float32).reshape(1, -1, 1, 1)
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def bind(n):
        x, y = get(n), out[:n]

        def run():
            np.multiply(x, scale, out=y)
            np.add(y, shift, out=y)
            if relu:
                np.maximum(y, 0.0, out=y)

        return run

    return bind


# ----------------------------------------------------------------------
# Elementwise ops
# ----------------------------------------------------------------------

def _build_binary(ufunc, relu=False):
    def build(step, ctx):
        ga = ctx.getter(step.inputs[0])
        gb = ctx.getter(step.inputs[1])
        out = ctx.out(step.output)

        def bind(n):
            a, b, y = ga(n), gb(n), out[:n]

            def run():
                ufunc(a, b, out=y)
                if relu:
                    np.maximum(y, 0.0, out=y)

            return run

        return bind
    return build


def _build_unary(ufunc, *args):
    """``ufunc(x, *args)`` elementwise (``relu`` is ``maximum(x, 0)``)."""
    def build(step, ctx):
        get = ctx.getter(step.inputs[0])
        out = ctx.out(step.output)

        def bind(n):
            x, y = get(n), out[:n]
            return lambda: ufunc(x, *args, out=y)

        return bind
    return build


def _build_sigmoid(step, ctx):
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def bind(n):
        x, y = get(n), out[:n]

        def run():
            np.negative(x, out=y)
            np.exp(y, out=y)
            np.add(y, 1.0, out=y)
            np.reciprocal(y, out=y)

        return run

    return bind


def _build_clip(step, ctx):
    low, high = step.params["low"], step.params["high"]
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def bind(n):
        x, y = get(n), out[:n]
        return lambda: np.clip(x, low, high, out=y)

    return bind


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------

def _pool_builder(combine, scale_by_area=False):
    """Separable pooling over NHWC memory.

    ``k`` combines over window rows, each over whole image rows (inner
    run ``W·C``), fill an ``(n, OH, W, C)`` scratch; ``k`` combines over
    its strided column slices (inner run ``C``) then fill the output.
    That is ``2k`` passes in place of ``k²`` with an inner run of ``C``.
    Max gives the ``k²`` loop's result bitwise; an average sums in
    another order, equal at rounding level. Values are NCHW views over
    NHWC memory and are read through their NHWC view; every tap slice is
    bound once per batch size.
    """

    def build(step, ctx):
        kernel = int(step.params["kernel"])
        stride = int(step.params["stride"])
        get = ctx.getter(step.inputs[0])
        out = _nhwc(ctx.out(step.output))
        nb, oh, ow, c = out.shape
        w_in = get(nb).shape[3]
        rows = ctx.scratch("rows", (nb, oh, w_in, c))
        inv_area = np.float32(1.0 / (kernel * kernel))

        def bind(n):
            x, r, y = _nhwc(get(n)), rows[:n], out[:n]
            row_taps = [x[:, i:i + oh * stride:stride] for i in range(kernel)]
            col_taps = [r[:, :, j:j + ow * stride:stride]
                        for j in range(kernel)]

            def run():
                np.copyto(r, row_taps[0])
                for tap in row_taps[1:]:
                    combine(r, tap, out=r)
                np.copyto(y, col_taps[0])
                for tap in col_taps[1:]:
                    combine(y, tap, out=y)
                if scale_by_area:
                    np.multiply(y, inv_area, out=y)

            return run

        return bind
    return build


def _build_global_avg_pool(step, ctx):
    """Spatial mean over NHWC memory; a 1x1 map is one scaled copy."""
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)                    # (nb, C)
    h, w = ctx.shape(step.inputs[0])[2:]
    factor = np.float32(1.0 / (h * w))

    def bind(n):
        x, y = _nhwc(get(n)), out[:n]
        if h * w == 1:
            x = x[:, 0, 0]
            return lambda: np.multiply(x, factor, out=y)

        def run():
            np.sum(x, axis=(1, 2), dtype=np.float32, out=y)
            np.multiply(y, factor, out=y)

        return run

    return bind


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------

def _build_flatten(step, ctx):
    start = int(step.params["start_dim"])
    in_shape = ctx.shape(step.inputs[0])
    tail = in_shape[1:start] + (int(np.prod(in_shape[start:])),)
    return _build_reshape(step, ctx, tail)


def _build_reshape(step, ctx, tail=None):
    """A view of the input where its memory order allows one; otherwise
    (NHWC memory flattened in NCHW order) a copy made on every read."""
    tail = tuple(step.params["tail"]) if tail is None else tail
    get = ctx.getter(step.inputs[0])
    nb = ctx.max_batch
    try:
        np.reshape(get(nb), (nb,) + tail, copy=False)
    except ValueError:
        ctx.alias(step.output, lambda n: np.reshape(get(n), (n,) + tail),
                  copies=True)
    else:
        ctx.alias(step.output,
                  lambda n: np.reshape(get(n), (n,) + tail, copy=False))
    return None


def _build_transpose(step, ctx):
    axes = tuple(step.params["axes"])
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def bind(n):
        x, y = np.transpose(get(n), axes), out[:n]
        return lambda: np.copyto(y, x)

    return bind


def _build_concat(step, ctx):
    axis = int(step.params["axis"])
    getters = [ctx.getter(vid) for vid in step.inputs]
    widths = [ctx.shape(vid)[axis] for vid in step.inputs]
    out = ctx.out(step.output)
    slots = []
    offset = 0
    for width in widths:
        index = [slice(None)] * out.ndim
        index[axis] = slice(offset, offset + width)
        slots.append(tuple(index))
        offset += width

    def bind(n):
        pairs = [(out[:n][slot], get(n)) for get, slot in zip(getters, slots)]

        def run():
            for dst, src in pairs:
                np.copyto(dst, src)

        return run

    return bind


def _build_pad2d(step, ctx):
    ph, pw = int(step.params["ph"]), int(step.params["pw"])
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)          # arena buffers start zeroed
    h, w = ctx.shape(step.inputs[0])[2:]

    def bind(n):
        x, interior = get(n), out[:n, :, ph:ph + h, pw:pw + w]
        return lambda: np.copyto(interior, x)

    return bind


# ----------------------------------------------------------------------
# Reductions and softmax family
# ----------------------------------------------------------------------

def _normalize_axis(axis):
    if axis is None:
        return None
    if isinstance(axis, (tuple, list)):
        return tuple(int(a) for a in axis)
    return int(axis)


def _build_reduction(npfunc):
    def build(step, ctx):
        axis = _normalize_axis(step.params.get("axis"))
        keepdims = bool(step.params.get("keepdims", False))
        get = ctx.getter(step.inputs[0])
        out = ctx.out(step.output)

        def bind(n):
            x, y = get(n), out[:n]
            return lambda: npfunc(x, axis=axis, keepdims=keepdims, out=y)

        return bind
    return build


def _build_log_softmax(step, ctx, log=True):
    ndim = len(ctx.shape(step.output))
    axis = int(step.params.get("axis", -1)) % ndim
    if axis == 0:
        raise ValueError("softmax over the batch axis cannot be compiled")
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    ebuf = ctx.scratch("exp", out.shape)
    red_shape = tuple(1 if d == axis else s
                      for d, s in enumerate(out.shape))
    mbuf = ctx.scratch("red", red_shape)

    def bind(n):
        x, y, e, m = get(n), out[:n], ebuf[:n], mbuf[:n]

        def run():
            np.max(x, axis=axis, keepdims=True, out=m)
            np.subtract(x, m, out=y)
            np.exp(y, out=e)
            np.sum(e, axis=axis, keepdims=True, out=m)
            if log:
                np.log(m, out=m)
                np.subtract(y, m, out=y)
            else:
                np.divide(e, m, out=y)

        return run

    return bind


BUILDERS = {
    "conv2d": _build_conv2d,
    "conv2d_relu": lambda step, ctx: _build_conv2d(step, ctx, relu=True),
    "linear": _build_linear,
    "linear_relu": lambda step, ctx: _build_linear(step, ctx, relu=True),
    "batchnorm": _build_batchnorm,
    "batchnorm_relu": lambda step, ctx: _build_batchnorm(step, ctx, relu=True),
    "relu": _build_unary(np.maximum, 0.0),
    "add": _build_binary(np.add),
    "add_relu": _build_binary(np.add, relu=True),
    "sub": _build_binary(np.subtract),
    "mul": _build_binary(np.multiply),
    "div": _build_binary(np.divide),
    "maximum": _build_binary(np.maximum),
    "minimum": _build_binary(np.minimum),
    "neg": _build_unary(np.negative),
    "exp": _build_unary(np.exp),
    "log": _build_unary(np.log),
    "sqrt": _build_unary(np.sqrt),
    "abs": _build_unary(np.abs),
    "tanh": _build_unary(np.tanh),
    "sigmoid": _build_sigmoid,
    "clip": _build_clip,
    "max_pool2d": _pool_builder(np.maximum),
    "avg_pool2d": _pool_builder(np.add, scale_by_area=True),
    "global_avg_pool": _build_global_avg_pool,
    "flatten": _build_flatten,
    "reshape": _build_reshape,
    "transpose": _build_transpose,
    "concat": _build_concat,
    "pad2d": _build_pad2d,
    "sum": _build_reduction(np.sum),
    "mean": _build_reduction(np.mean),
    "max": _build_reduction(np.max),
    "log_softmax": _build_log_softmax,
    "softmax": lambda step, ctx: _build_log_softmax(step, ctx, log=False),
}


def build_step(step, ctx):
    """Compile one plan step; returns ``bind(n)`` or ``None`` for aliases."""
    builder = BUILDERS.get(step.op)
    if builder is None:
        raise NotImplementedError(
            f"no kernel for op {step.op!r} (step: {step.describe()})")
    return builder(step, ctx)
