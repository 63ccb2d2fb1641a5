"""Differentiable 2-D convolution and pooling via im2col.

The im2col transform rewrites convolution as a matrix multiplication, which
is the only way to get acceptable CNN throughput from numpy. The same
lowering is what the paper's Figure 2 illustrates (filters reshaped into a
sparse matrix multiplying the flattened input); :mod:`repro.core.toeplitz`
builds that sparse matrix explicitly for the orthogonality regulariser.

Shapes follow the NCHW convention used by the rest of the code base:
inputs are ``(N, C, H, W)``, convolution weights are ``(O, C, KH, KW)``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, _tape_active

__all__ = [
    "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d",
    "im2col", "col2im", "im2col_signature", "clear_im2col_cache",
    "conv_output_size", "IM2COL_CACHE_SIZE",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    return (size + 2 * padding - kernel) // stride + 1


class ColSignature:
    """Precomputed geometry of one im2col lowering.

    Holds the output extent for a ``(C, H, W, kh, kw, stride, padding,
    dtype)`` signature; :func:`im2col_signature` memoizes the whole
    object, so repeated forward passes on fixed shapes (the training and
    inference steady state) never recompute it.

    The element dtype is part of the signature: the quantized engine lowers
    int8 activations through the same geometries as the float32 engine, and
    the two never share an entry.
    """

    __slots__ = ("c", "h", "w", "kh", "kw", "stride", "padding", "dtype",
                 "oh", "ow")

    def __init__(self, c: int, h: int, w: int, kh: int, kw: int,
                 stride: int, padding: int, dtype=np.float32):
        self.c, self.h, self.w = c, h, w
        self.kh, self.kw = kh, kw
        self.stride, self.padding = stride, padding
        self.dtype = np.dtype(dtype)
        self.oh = conv_output_size(h, kh, stride, padding)
        self.ow = conv_output_size(w, kw, stride, padding)

    @property
    def padded_extent(self) -> tuple[int, int]:
        return self.h + 2 * self.padding, self.w + 2 * self.padding


# Bounded LRU of ColSignature objects. A handful of distinct shapes exist
# per network (one per layer geometry), so the bound is generous; it only
# guards against unbounded growth in long-lived processes that sweep many
# resolutions.
IM2COL_CACHE_SIZE = 128
_SIGNATURE_CACHE: OrderedDict[tuple, ColSignature] = OrderedDict()


def im2col_signature(c: int, h: int, w: int, kh: int, kw: int,
                     stride: int, padding: int,
                     dtype=np.float32) -> ColSignature:
    """Memoized :class:`ColSignature` for an im2col geometry + dtype."""
    dtype = np.dtype(dtype)
    key = (c, h, w, kh, kw, stride, padding, dtype)
    sig = _SIGNATURE_CACHE.get(key)
    if sig is not None:
        _SIGNATURE_CACHE.move_to_end(key)
        return sig
    sig = ColSignature(*key)
    _SIGNATURE_CACHE[key] = sig
    while len(_SIGNATURE_CACHE) > IM2COL_CACHE_SIZE:
        _SIGNATURE_CACHE.popitem(last=False)
    return sig


def clear_im2col_cache() -> None:
    """Drop all memoized im2col signatures (tests and memory pressure)."""
    _SIGNATURE_CACHE.clear()


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Lower image patches into one GEMM-ready column matrix.

    Parameters
    ----------
    x:
        Input array ``(N, C, H, W)``.

    Returns
    -------
    ``(C*kh*kw, N*OH*OW)`` array: row ``(c, i, j)`` holds kernel tap
    ``(i, j)`` of channel ``c``, column ``(n, y, x)`` one receptive field.
    A padded input is written once into a zero-filled buffer; the columns
    are then one strided copy of it, so ``W.reshape(O, -1) @ cols`` is the
    whole batch's convolution in a single matrix product.
    """
    n, c, h, w = x.shape
    sig = im2col_signature(c, h, w, kh, kw, stride, padding, dtype=x.dtype)
    oh, ow = sig.oh, sig.ow
    if padding > 0:
        hp, wp = sig.padded_extent
        padded = np.zeros((n, c, hp, wp), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    patches = as_strided(
        x,
        shape=(c, kh, kw, n, oh, ow),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    return np.ascontiguousarray(patches).reshape(c * kh * kw, n * oh * ow)


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add ``(C*kh*kw, N*OH*OW)``
    columns back to an ``(N, C, H, W)`` image."""
    n, c, h, w = x_shape
    sig = im2col_signature(c, h, w, kh, kw, stride, padding, dtype=cols.dtype)
    oh, ow = sig.oh, sig.ow
    hp, wp = sig.padded_extent
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    xt = x.transpose(1, 0, 2, 3)                   # (C, N, Hp, Wp) view
    cols6 = cols.reshape(c, kh, kw, n, oh, ow)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            xt[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, i, j]
    if padding > 0:
        return x[:, :, padding:hp - padding, padding:wp - padding]
    return x


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

    The forward, input-gradient and weight-gradient products are one
    ``np.matmul`` each over the whole batch's :func:`im2col` columns.
    """
    n, c, h, w = x.shape
    o, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    sig = im2col_signature(c, h, w, kh, kw, stride, padding)
    oh, ow = sig.oh, sig.ow

    cols = im2col(x.data, kh, kw, stride, padding)       # (C*KH*KW, N*OH*OW)
    w2d = weight.data.reshape(o, -1)                     # (O, C*KH*KW)
    # One (N*OH*OW, O) product: channels-last memory behind an NCHW view,
    # which the elementwise layers keep and the pooling windows favour.
    rows = np.matmul(cols.T, w2d.T)
    if bias is not None:
        np.add(rows, bias.data, out=rows)
    out = rows.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _tape_active(*parents):
        return Tensor._make(out, (), "conv2d", None)

    def backward(grad):
        grad_rows = grad.transpose(0, 2, 3, 1).reshape(-1, o)
        gx = gw = gb = None
        if x.requires_grad:
            dcols = np.matmul(w2d.T, grad_rows.T)        # (C*KH*KW, N*OH*OW)
            gx = col2im(dcols, (n, c, h, w), kh, kw, stride, padding)
        if weight.requires_grad:
            gw = np.matmul(grad_rows.T, cols.T).reshape(weight.shape)
        if bias is not None and bias.requires_grad:
            gb = grad_rows.sum(axis=0)
        if bias is None:
            return (gx, gw)
        return (gx, gw, gb)

    return Tensor._make(out, parents, "conv2d", backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
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
    if not _tape_active(x):
        # Forward-only: skip the argmax bookkeeping the backward needs.
        return Tensor._make(np.ascontiguousarray(windows.max(axis=(-2, -1))),
                            (), "max_pool2d", None)
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad):
        gx = np.zeros_like(x.data)
        # Convert flat window argmax back to absolute coordinates.
        ki, kj = np.unravel_index(argmax, (kernel, kernel))
        oy, ox_ = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        rows = oy[None, None] * stride + ki
        cols_ = ox_[None, None] * stride + kj
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(gx, (ni, ci, rows, cols_), grad)
        return (gx,)

    return Tensor._make(np.ascontiguousarray(out), (x,), "max_pool2d", backward)


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
