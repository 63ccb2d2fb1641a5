"""Kernel builders: compile plan steps into zero-allocation closures.

Each builder receives a :class:`~repro.infer.plan.Step` plus a build
context and returns ``run(n)`` — a closure that reads its input buffers,
computes the step for the first ``n`` rows, and writes the step's output
buffer in place. All large arrays (activations, im2col column matrices,
padded-image scratch) are preallocated at engine build time at the
engine's batch capacity; a steady-state ``run`` performs no large
allocations. View-only ops (``flatten``, ``reshape``) return ``None`` and
register an alias instead of a buffer, so they cost nothing at runtime.

The context object (``ctx``) provides:

``getter(vid)``
    ``callable(n)`` producing the value — a ``buf[:n]`` slice for batched
    values, the raw array for baked constants, or a registered alias view.
``out(vid)`` / ``alias(vid, fn)``
    Allocate the output buffer for a value, or register it as a view.
``scratch(name, shape, zero=False)``
    Named preallocated scratch array owned by this step.
``shape(vid)``
    Capacity shape (batch axis already rescaled to ``max_batch``).

Closures never use augmented assignment on closed-over buffers (``buf +=
x`` rebinds locally); they call the ufunc with ``out=`` instead.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["BUILDERS", "build_step", "register_builders"]


def _maybe_relu(buf, n):
    np.maximum(buf[:n], 0.0, out=buf[:n])


def _layer_weight(params) -> np.ndarray:
    """Float weight of a conv/linear step.

    Weight-only-quantized steps (float execution, int8 storage — see
    :func:`repro.infer.optimize.quantize_plan`) carry ``weight_q`` +
    ``w_scale`` instead of ``weight``; dequantization happens here, once,
    at engine build time.
    """
    w = params.get("weight")
    if w is None:
        w = (np.asarray(params["weight_q"], dtype=np.float32)
             * np.asarray(params["w_scale"], dtype=np.float32))
    return w


# ----------------------------------------------------------------------
# Convolution and linear layers
# ----------------------------------------------------------------------

def _build_conv2d(step, ctx, relu=False):
    p = step.params
    w = np.ascontiguousarray(_layer_weight(p), dtype=np.float32)
    o, c, kh, kw = w.shape
    stride, padding = int(p["stride"]), int(p["padding"])
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    nb = out.shape[0]
    oh, ow = out.shape[2], out.shape[3]
    h, w_in = ctx.shape(step.inputs[0])[2:]
    w2d = w.reshape(o, -1)
    bias = p.get("bias")
    bcol = (None if bias is None
            else np.ascontiguousarray(bias, dtype=np.float32).reshape(o, 1))
    span = oh * ow
    out3 = out.reshape(nb, o, span)
    cols = ctx.scratch("cols", (nb, c * kh * kw, span))
    cols6 = cols.reshape(nb, c, kh, kw, oh, ow)
    padbuf = (ctx.scratch("pad", (nb, c, h + 2 * padding, w_in + 2 * padding),
                          zero=True)
              if padding > 0 else None)

    def run(n):
        x = get(n)
        if padbuf is not None:
            padbuf[:n, :, padding:padding + h, padding:padding + w_in] = x
            src = padbuf[:n]
        else:
            src = np.ascontiguousarray(x)
        sn, sc, sh, sw = src.strides
        patches = as_strided(
            src, shape=(n, c, kh, kw, oh, ow),
            strides=(sn, sc, sh, sw, sh * stride, sw * stride),
            writeable=False)
        np.copyto(cols6[:n], patches)
        np.matmul(w2d, cols[:n], out=out3[:n])
        if bcol is not None:
            np.add(out3[:n], bcol, out=out3[:n])
        if relu:
            _maybe_relu(out3, n)

    return run


def _build_linear(step, ctx, relu=False):
    p = step.params
    wt = np.ascontiguousarray(
        np.asarray(_layer_weight(p), dtype=np.float32).T)  # (in, out)
    bias = p.get("bias")
    b = None if bias is None else np.asarray(bias, dtype=np.float32)
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def run(n):
        np.matmul(get(n), wt, out=out[:n])
        if b is not None:
            np.add(out[:n], b, out=out[:n])
        if relu:
            _maybe_relu(out, n)

    return run


def _build_batchnorm(step, ctx, relu=False):
    p = step.params
    scale = (np.asarray(p["gamma"], dtype=np.float64)
             / np.sqrt(np.asarray(p["var"], dtype=np.float64) + p["eps"]))
    shift = np.asarray(p["beta"], dtype=np.float64) - p["mean"] * scale
    scale = scale.astype(np.float32).reshape(1, -1, 1, 1)
    shift = shift.astype(np.float32).reshape(1, -1, 1, 1)
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def run(n):
        np.multiply(get(n), scale, out=out[:n])
        np.add(out[:n], shift, out=out[:n])
        if relu:
            _maybe_relu(out, n)

    return run


# ----------------------------------------------------------------------
# Elementwise ops
# ----------------------------------------------------------------------

def _build_binary(ufunc, relu=False):
    def build(step, ctx):
        ga = ctx.getter(step.inputs[0])
        gb = ctx.getter(step.inputs[1])
        out = ctx.out(step.output)

        def run(n):
            ufunc(ga(n), gb(n), out=out[:n])
            if relu:
                _maybe_relu(out, n)

        return run
    return build


def _build_unary(ufunc):
    def build(step, ctx):
        get = ctx.getter(step.inputs[0])
        out = ctx.out(step.output)

        def run(n):
            ufunc(get(n), out=out[:n])

        return run
    return build


def _build_relu(step, ctx):
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def run(n):
        np.maximum(get(n), 0.0, out=out[:n])

    return run


def _build_sigmoid(step, ctx):
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def run(n):
        np.negative(get(n), out=out[:n])
        np.exp(out[:n], out=out[:n])
        np.add(out[:n], 1.0, out=out[:n])
        np.reciprocal(out[:n], out=out[:n])

    return run


def _build_clip(step, ctx):
    low, high = step.params["low"], step.params["high"]
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def run(n):
        np.clip(get(n), low, high, out=out[:n])

    return run


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------

def _build_pool(combine, scale_by_area):
    """Pooling as k² elementwise combines over strided window slices.

    An order of magnitude faster than reducing an as_strided 6-D window
    view: each combine is a flat ufunc over contiguousish slices instead
    of a generic multi-axis reduction with tiny inner strides.
    """
    def build(step, ctx):
        kernel = int(step.params["kernel"])
        stride = int(step.params["stride"])
        get = ctx.getter(step.inputs[0])
        out = ctx.out(step.output)
        oh, ow = out.shape[2], out.shape[3]
        inv_area = np.float32(1.0 / (kernel * kernel))
        offsets = [(i, j) for i in range(kernel) for j in range(kernel)]

        def run(n):
            x = get(n)
            i0, j0 = offsets[0]
            np.copyto(out[:n], x[:, :, i0:i0 + oh * stride:stride,
                                 j0:j0 + ow * stride:stride])
            for i, j in offsets[1:]:
                combine(out[:n], x[:, :, i:i + oh * stride:stride,
                                   j:j + ow * stride:stride], out=out[:n])
            if scale_by_area:
                np.multiply(out[:n], inv_area, out=out[:n])

        return run
    return build


def _build_global_avg_pool(step, ctx):
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)
    h, w = ctx.shape(step.inputs[0])[2:]
    inv = np.float32(1.0 / (h * w))

    def run(n):
        np.sum(get(n), axis=(2, 3), out=out[:n])
        np.multiply(out[:n], inv, out=out[:n])

    return run


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------

def _build_flatten(step, ctx):
    start = int(step.params["start_dim"])
    in_shape = ctx.shape(step.inputs[0])
    head = in_shape[1:start]
    tail = int(np.prod(in_shape[start:], dtype=np.int64)) if start < len(
        in_shape) else 1
    get = ctx.getter(step.inputs[0])
    ctx.alias(step.output,
              lambda n: np.ascontiguousarray(get(n)).reshape(
                  (n,) + head + (tail,)))
    return None


def _build_reshape(step, ctx):
    tail = tuple(step.params["tail"])
    get = ctx.getter(step.inputs[0])
    ctx.alias(step.output,
              lambda n: np.ascontiguousarray(get(n)).reshape((n,) + tail))
    return None


def _build_transpose(step, ctx):
    axes = tuple(step.params["axes"])
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)

    def run(n):
        np.copyto(out[:n], np.transpose(get(n), axes))

    return run


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

    def run(n):
        for get, slot in zip(getters, slots):
            out[:n][slot] = get(n)

    return run


def _build_pad2d(step, ctx):
    ph, pw = int(step.params["ph"]), int(step.params["pw"])
    get = ctx.getter(step.inputs[0])
    out = ctx.out(step.output)          # arena buffers start zeroed
    h, w = ctx.shape(step.inputs[0])[2:]

    def run(n):
        out[:n, :, ph:ph + h, pw:pw + w] = get(n)

    return run


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

        def run(n):
            npfunc(get(n), axis=axis, keepdims=keepdims, out=out[:n])

        return run
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

    def run(n):
        x = get(n)
        np.max(x, axis=axis, keepdims=True, out=mbuf[:n])
        np.subtract(x, mbuf[:n], out=out[:n])
        np.exp(out[:n], out=ebuf[:n])
        np.sum(ebuf[:n], axis=axis, keepdims=True, out=mbuf[:n])
        if log:
            np.log(mbuf[:n], out=mbuf[:n])
            np.subtract(out[:n], mbuf[:n], out=out[:n])
        else:
            np.divide(ebuf[:n], mbuf[:n], out=out[:n])

    return run


BUILDERS = {
    "conv2d": _build_conv2d,
    "conv2d_relu": lambda step, ctx: _build_conv2d(step, ctx, relu=True),
    "linear": _build_linear,
    "linear_relu": lambda step, ctx: _build_linear(step, ctx, relu=True),
    "batchnorm": _build_batchnorm,
    "batchnorm_relu": lambda step, ctx: _build_batchnorm(step, ctx, relu=True),
    "relu": _build_relu,
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
    "max_pool2d": _build_pool(np.maximum, scale_by_area=False),
    "avg_pool2d": _build_pool(np.add, scale_by_area=True),
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


def register_builders(builders: dict) -> None:
    """Extend the kernel registry (used by :mod:`repro.qinfer.kernels`).

    Re-registering the same builder object for an op is a no-op;
    registering a *different* builder for an existing op is an error, so
    subsystems cannot silently shadow each other's lowerings.
    """
    for op, builder in builders.items():
        existing = BUILDERS.get(op)
        if existing is not None and existing is not builder:
            raise ValueError(f"op {op!r} already has a registered builder")
        BUILDERS[op] = builder


def build_step(step, ctx):
    """Compile one plan step; returns ``run(n)`` or ``None`` for aliases."""
    builder = BUILDERS.get(step.op)
    if builder is None:
        raise NotImplementedError(
            f"no kernel for op {step.op!r} (step: {step.describe()})")
    return builder(step, ctx)
