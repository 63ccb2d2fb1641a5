"""Differentiable 2-D convolution and pooling via im2col.

The im2col transform rewrites convolution as a matrix multiplication, which
is the only way to get acceptable CNN throughput from numpy. The same
lowering is what the paper's Figure 2 illustrates (filters reshaped into a
sparse matrix multiplying the flattened input); :mod:`repro.core.toeplitz`
builds that sparse matrix explicitly for the orthogonality regulariser.

Shapes follow the NCHW convention used by the rest of the code base:
inputs are ``(N, C, H, W)``, convolution weights are ``(O, C, KH, KW)``.
``conv2d`` and ``max_pool2d`` return NCHW views over channels-last memory,
so the next lowering reads contiguous channels; a 1x1 input under "same"
padding is lowered to its centre tap alone.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, _tape_active

__all__ = [
    "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d",
    "im2col", "col2im", "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    return (size + 2 * padding - kernel) // stride + 1


def centre_tap_only(h: int, w: int, kh: int, kw: int, padding: int) -> bool:
    """Whether every output of a conv over an ``h × w`` input reads only
    the centre tap ``(padding, padding)``: a 1x1 input under "same"
    padding (``kh == kw == 2·padding + 1``), at any stride."""
    return h == w == 1 and kh == kw == 2 * padding + 1


def _channels_last(x: np.ndarray) -> np.ndarray:
    """``(N, H, W, C)`` C-contiguous view of an ``(N, C, H, W)`` array.

    Free for the NCHW views over NHWC memory that convolutions, batch norm
    and pooling return; one transposing copy for NCHW-contiguous inputs.
    """
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def window_view(xh: np.ndarray, kh: int, kw: int,
                stride: int) -> np.ndarray:
    """Every receptive field of C-contiguous NHWC memory, as a view.

    Returns the ``(N, OH, OW, kh, kw, C)`` array whose ``(n, y, x)`` entry
    is the window at output position ``(y, x)``; nothing is copied. ``xh``
    already holds any padding.
    """
    n, hp, wp, c = xh.shape
    oh = conv_output_size(hp, kh, stride, 0)
    ow = conv_output_size(wp, kw, stride, 0)
    sn, sh, sw, sc = xh.strides
    return np.ndarray((n, oh, ow, kh, kw, c), xh.dtype, xh, 0,
                      (sn, sh * stride, sw * stride, sh, sw, sc))


def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           padding: int) -> np.ndarray:
    """Lower image patches into one GEMM-ready row matrix.

    ``x`` is ``(N, C, H, W)`` in any memory layout; channels-last memory
    behind an NCHW view is read without a copy. Returns the
    ``(N*OH*OW, kh*kw*C)`` rows: row ``(n, y, x)`` holds one receptive
    field, column ``(i, j, c)`` kernel tap ``(i, j)`` of channel ``c``. The
    input is read as channels-last, so the rows are one strided copy of
    :func:`window_view` whose inner run is ``kw*C`` contiguous elements.
    The compiled engine binds the same view over its own scratch.
    """
    n, c, h, w = x.shape
    if padding > 0:
        xh = np.zeros((n, h + 2 * padding, w + 2 * padding, c),
                      dtype=x.dtype)
        xh[:, padding:padding + h, padding:padding + w] = x.transpose(
            0, 2, 3, 1)
    else:
        xh = _channels_last(x)
    patches = window_view(xh, kh, kw, stride)
    out = np.empty(patches.shape, dtype=x.dtype)
    np.copyto(out, patches)
    return out.reshape(-1, kh * kw * c)


def col2im(rows: np.ndarray, x_shape: tuple[int, int, int, int],
           kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add ``(N*OH*OW, kh*kw*C)`` rows
    back to an ``(N, C, H, W)`` image (an NCHW view over NHWC memory).

    Taps are added in ``(i, j)`` order, each as one strided add whose
    inner run is ``C`` contiguous elements.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    x = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=rows.dtype)
    rows6 = rows.reshape(n, oh, ow, kh, kw, c)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            x[:, i:i_max:stride, j:j_max:stride] += rows6[:, :, :, i, j]
    return x[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation (deep-learning style "convolution").

    Parameters
    ----------
    x:
        Input activations ``(N, C, H, W)``.
    weight:
        Filters ``(O, C, KH, KW)``.
    bias:
        Optional per-output-channel bias ``(O,)``.

    The forward and weight-gradient products are one ``np.matmul`` each
    over the whole batch's :func:`im2col` rows, against the filters in
    ``(O, KH*KW*C)`` tap order. At stride 1 the input gradient is one
    more, the transposed convolution ``im2col(grad, pad=k-1-p) @ W_flipped``
    (``grad @ W`` for a 1x1 lowering that keeps the image size); strided
    convs scatter ``grad @ W`` back with :func:`col2im`. A frozen weight's
    backward keeps no rows. The output is an NCHW view
    over channels-last memory, which the elementwise layers, batch norm and
    pooling keep, so the next convolution reads contiguous channels.
    A 1x1 input under "same" padding meets only the centre tap: it is
    ``x(N, C) @ W[:, :, p, p]ᵀ``, with zero gradient for the padding taps.
    """
    n, c, h, w = x.shape
    o, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    centre = centre_tap_only(h, w, kh, kw, padding)
    lh, lw, pad, p0 = (1, 1, 0, padding) if centre else (kh, kw, padding, 0)
    taps = weight.data[:, :, p0:p0 + lh, p0:p0 + lw]    # lowered kernel

    cols = im2col(x.data, lh, lw, stride, pad)           # (N*OH*OW, lh*lw*C)
    w2d = taps.transpose(0, 2, 3, 1).reshape(o, -1)      # (O, lh*lw*C)
    rows = np.matmul(cols, w2d.T)                        # (N*OH*OW, O)
    if bias is not None:
        np.add(rows, bias.data, out=rows)
    out = rows.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _tape_active(*parents):
        return Tensor._make(out, (), "conv2d", None)
    if not weight.requires_grad:
        cols = None        # only the weight gradient reads the rows
    # Stride 1 (or a 1x1 image under a 1x1 lowering), padding below the
    # kernel: dx is the gradient correlated with the flipped filters.
    transposed = lh == lw > pad and (stride == 1 or h == w == lh == 1)

    def backward(grad):
        grad_rows = grad.transpose(0, 2, 3, 1).reshape(-1, o)
        gx = gw = gb = None
        if x.requires_grad and transposed:
            flipped = taps[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
            gx = np.matmul(grad_rows if lh == 1 else
                           im2col(grad, lh, lw, 1, lh - 1 - pad),
                           flipped.reshape(-1, c))
            gx = gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)
        elif x.requires_grad:
            gx = col2im(np.matmul(grad_rows, w2d), (n, c, h, w),
                        lh, lw, stride, pad)
        if cols is not None:
            gw = np.zeros(weight.shape, dtype=grad_rows.dtype)
            gw[:, :, p0:p0 + lh, p0:p0 + lw] = np.matmul(
                grad_rows.T, cols).reshape(o, lh, lw, c).transpose(0, 3, 1, 2)
        if bias is not None and bias.requires_grad:
            gb = grad_rows.sum(axis=0)
        if bias is None:
            return (gx, gw)
        return (gx, gw, gb)

    return Tensor._make(out, parents, "conv2d", backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows.

    Windows are swept over channels-last memory as ``kernel²`` strided tap
    views into an NCHW view over NHWC memory. The backward recomputes each
    tap's ``tap == out`` mask: of equal maxima the first in ``(i, j)`` order
    takes the gradient, and a window holding NaN passes none.
    """
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    xh = _channels_last(x.data)
    taps = [np.s_[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
            for i in range(kernel) for j in range(kernel)]
    out = xh[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, xh[tap], out=out)
    if not _tape_active(x):
        return Tensor._make(out.transpose(0, 3, 1, 2), (), "max_pool2d", None)

    def backward(grad):
        g = grad.transpose(0, 2, 3, 1)
        # Tiled windows write each input once (0.0 + -0.0 is +0.0, as a sum).
        tiled = stride == kernel and (h, w) == (kernel * oh, kernel * ow)
        gx = (np.empty if tiled else np.zeros)((n, h, w, c), dtype=grad.dtype)
        taken = np.zeros(out.shape, dtype=bool)
        for tap in taps:
            hit = xh[tap] == out
            hit &= ~taken
            taken |= hit
            np.add(0.0 if tiled else gx[tap], np.where(hit, g, 0.0),
                   out=gx[tap])
        return (gx.transpose(0, 3, 1, 2),)

    return Tensor._make(out.transpose(0, 3, 1, 2), (x,), "max_pool2d", backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    sn, sc, sh, sw = x.data.strides
    windows = as_strided(
        x.data,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    out = windows.mean(axis=(-2, -1))
    if not _tape_active(x):
        return Tensor._make(np.ascontiguousarray(out), (), "avg_pool2d", None)
    scale = 1.0 / (kernel * kernel)

    def backward(grad):
        gx = np.zeros_like(x.data)
        g = grad * scale
        for i in range(kernel):
            for j in range(kernel):
                gx[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += g
        return (gx,)

    return Tensor._make(np.ascontiguousarray(out), (x,), "avg_pool2d", backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    from . import ops
    return ops.mean(x, axis=(2, 3))
