"""Convolution and pooling: correctness vs naive loops + gradient checks."""

import numpy as np
import pytest

from repro.tensor import (Tensor, avg_pool2d, check_gradients, conv2d,
                          conv_output_size, max_pool2d, no_grad)
from repro.tensor.conv import im2col


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Reference convolution with explicit loops."""
    n, c, h, wid = x.shape
    o, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    patch = x[ni, :, yi * stride:yi * stride + kh,
                              xi * stride:xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum()
            if b is not None:
                out[ni, oi] += b[oi]
    return out


class TestConvOutputSize:
    @pytest.mark.parametrize("size,k,s,p,expected", [
        (8, 3, 1, 1, 8), (8, 3, 2, 1, 4), (8, 2, 2, 0, 4), (5, 5, 1, 0, 1),
        (7, 3, 1, 0, 5),
    ])
    def test_known_sizes(self, size, k, s, p, expected):
        assert conv_output_size(size, k, s, p) == expected


def naive_im2col(x, kh, kw, stride, padding):
    """Loop reference of the ``(N*OH*OW, kh*kw*C)`` row layout."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    rows = np.zeros((n * oh * ow, kh * kw * c), dtype=x.dtype)
    for ni in range(n):
        for yi in range(oh):
            for xi in range(ow):
                for i in range(kh):
                    for j in range(kw):
                        for ci in range(c):
                            rows[(ni * oh + yi) * ow + xi, (i * kw + j) * c + ci] = \
                                xp[ni, ci, yi * stride + i, xi * stride + j]
    return rows


def channels_last(x):
    """The same values as ``x``, as an NCHW view over NHWC memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def im2col_adjoint(rows, x_shape, k, stride, padding):
    """Adjoint of :func:`im2col`, through ``conv2d``'s input gradient.

    Filters that each pick one ``(tap, channel)`` column (``O = k*k*C``,
    identity ``(O, k*k*C)`` matrix) make the conv output the im2col rows
    themselves, so the input gradient of ``rows`` is their adjoint image.
    """
    n, c, h, w = x_shape
    o = k * k * c
    eye = np.eye(o, dtype=np.float32).reshape(o, k, k, c).transpose(0, 3, 1, 2)
    x = Tensor(np.zeros(x_shape, dtype=np.float32), requires_grad=True)
    out = conv2d(x, Tensor(eye), stride=stride, padding=padding)
    oh, ow = out.shape[2:]
    out.backward(rows.reshape(n, oh, ow, o).transpose(0, 3, 1, 2))
    return x.grad


class TestIm2Col:
    def test_round_trip_is_multiplicity_weighted(self):
        # adjoint(im2col(x)) adds each pixel once per window covering it;
        # with kernel=stride (non-overlapping) it is the identity.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 2, 2, stride=2, padding=0)
        back = im2col_adjoint(cols, x.shape, 2, stride=2, padding=0)
        np.testing.assert_array_equal(back, x)
        # Overlapping 3x3/stride-1 windows: the centre pixel of a 3x3
        # image is covered once per tap.
        x = np.ones((1, 2, 3, 3), dtype=np.float32)
        back = im2col_adjoint(im2col(x, 3, 3, 1, 1), x.shape, 3, 1, 1)
        assert back[0, 0, 1, 1] == 9 and back[0, 1, 0, 0] == 4

    ADJOINT_CASES = [
        (shape, k, stride, padding)
        for shape, k in (((2, 3, 5, 5), 3), ((1, 2, 4, 7), 3),
                         ((2, 1, 6, 3), 2), ((3, 2, 1, 1), 1),
                         ((2, 3, 1, 1), 3))
        for stride in (1, 2) for padding in (0, 1, 2)
        if conv_output_size(min(shape[2:]), k, stride, padding) >= 1]

    def test_adjointness(self):
        # <im2col(x), y> == <x, adjoint(y)> — the defining adjoint property
        # that makes the conv input gradient correct — across strides 1/2,
        # paddings 0/1/2 (more than k - 1 too), non-square and 1x1 spatial
        # inputs. Small integers keep every float32 sum exact. The rows
        # also match a loop reference, so a row/tap/channel mix-up in the
        # (N*OH*OW, kh*kw*C) layout shows.
        rng = np.random.default_rng(1)
        for shape, k, stride, padding in self.ADJOINT_CASES:
            n, c, h, w = shape
            x = rng.integers(-3, 4, size=shape).astype(np.float32)
            cols = im2col(x, k, k, stride=stride, padding=padding)
            oh = conv_output_size(h, k, stride, padding)
            ow = conv_output_size(w, k, stride, padding)
            assert cols.shape == (n * oh * ow, k * k * c)
            np.testing.assert_array_equal(
                cols, naive_im2col(x, k, k, stride, padding))
            y = rng.integers(-3, 4, size=cols.shape).astype(np.float32)
            back = im2col_adjoint(y, x.shape, k, stride, padding)
            assert back.shape == x.shape
            assert (cols * y).sum() == (x * back).sum()

    def test_column_count(self):
        x = np.zeros((1, 2, 6, 6), dtype=np.float32)
        cols = im2col(x, 3, 3, stride=1, padding=0)
        assert cols.shape == (1 * 4 * 4, 9 * 2)

    def test_layout_independent(self):
        # NCHW-contiguous and channels-last inputs lower to the same rows.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
        for padding in (0, 1):
            np.testing.assert_array_equal(
                im2col(x, 3, 3, 1, padding),
                im2col(channels_last(x), 3, 3, 1, padding))

    def test_preserves_input_dtype(self):
        rng = np.random.default_rng(0)
        xi = rng.integers(-127, 128, size=(2, 3, 4, 4), dtype=np.int8)
        cols = im2col(xi, 3, 3, 1, 1)
        assert cols.dtype == np.int8
        np.testing.assert_array_equal(cols, naive_im2col(xi, 3, 3, 1, 1))


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 7, 7)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor(rng.normal(size=(4,)))
        out = conv2d(x, w, b, stride=stride, padding=padding)
        ref = naive_conv2d(x.data, w.data, b.data, stride, padding)
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)

    def test_1x1_conv(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 4, 5, 5)))
        w = Tensor(rng.normal(size=(2, 4, 1, 1)))
        out = conv2d(x, w)
        ref = naive_conv2d(x.data, w.data)
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(x, w)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_gradients(self, stride, padding):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding),
            [x, w, b])

    def test_gradients_without_bias(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)
        check_gradients(lambda x, w: conv2d(x, w, stride=2), [x, w])


def direct_conv2d_grads(x, w, grad, stride, padding):
    """float64 loop reference for the conv backward: ``(dx, dw, db)``."""
    n, c, h, wid = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ni in range(n):
        for oi in range(o):
            for yi in range(grad.shape[2]):
                for xi in range(grad.shape[3]):
                    g = grad[ni, oi, yi, xi]
                    rows = slice(yi * stride, yi * stride + kh)
                    cols = slice(xi * stride, xi * stride + kw)
                    dw[oi] += g * xp[ni, :, rows, cols]
                    dxp[ni, :, rows, cols] += g * w[oi]
    dx = dxp[:, :, padding:padding + h, padding:padding + wid]
    return dx, dw, grad.sum(axis=(0, 2, 3))


class TestConv2dDirectReference:
    """Forward and all three gradients against float64 direct loops on
    odd geometries: one input channel, a 1x1 output, stride 2, padding
    0/1/2, kernels 1/3/5 and batch 1."""

    @pytest.mark.parametrize("n,c,h,w,o,k,stride,padding", [
        (1, 1, 5, 5, 2, 3, 1, 0),      # C=1, batch 1
        (2, 3, 3, 3, 4, 3, 1, 0),      # OH*OW = 1
        (1, 3, 5, 5, 1, 5, 1, 0),      # OH*OW = 1, kernel 5
        (2, 2, 1, 1, 3, 1, 1, 0),      # 1x1 image, kernel 1
        (3, 2, 6, 5, 2, 1, 2, 0),      # kernel 1, stride 2
        (2, 1, 4, 7, 3, 3, 2, 1),      # C=1, stride 2, padding 1
        (1, 2, 7, 6, 3, 5, 2, 2),      # kernel 5, stride 2, padding 2
        (1, 2, 2, 3, 2, 5, 1, 2),      # kernel larger than the image
    ])
    def test_forward_and_gradients(self, n, c, h, w, o, k, stride, padding):
        rng = np.random.default_rng(n * 1000 + c * 100 + k * 10 + padding)
        x = Tensor(rng.normal(size=(n, c, h, w)), requires_grad=True)
        wt = Tensor(rng.normal(size=(o, c, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(o,)), requires_grad=True)
        out = conv2d(x, wt, b, stride=stride, padding=padding)
        # The reference runs in float64 on the float32 operands, so the
        # tolerance only absorbs conv2d's own float32 rounding.
        x64, w64, b64 = (t.data.astype(np.float64) for t in (x, wt, b))
        ref = naive_conv2d(x64, w64, b64, stride, padding)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5)

        grad = rng.normal(size=ref.shape).astype(np.float32)
        (out * Tensor(grad)).sum().backward()
        dx, dw, db = direct_conv2d_grads(x64, w64, grad.astype(np.float64),
                                         stride, padding)
        assert x.grad.shape == dx.shape and wt.grad.shape == dw.shape
        np.testing.assert_allclose(x.grad, dx, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(wt.grad, dw, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(b.grad, db, rtol=1e-5, atol=1e-5)


class TestInputGradient:
    """The transposed-GEMM input gradient against the float64 loop
    reference: kernels 1/3/5 at every padding 0..k-1, strides 1 and 2,
    odd sizes, NCHW-contiguous and channels-last inputs."""

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k,padding", [(k, p) for k in (1, 3, 5)
                                           for p in range(k)])
    def test_matches_loop_reference(self, k, padding, stride, layout):
        rng = np.random.default_rng(100 * k + 10 * padding + stride)
        x = rng.normal(size=(2, 3, 7, 5)).astype(np.float32)
        if layout == "nhwc":
            x = channels_last(x)
        xt = Tensor(x, requires_grad=True)
        w = rng.normal(size=(4, 3, k, k)).astype(np.float32)
        out = conv2d(xt, Tensor(w), stride=stride, padding=padding)
        grad = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad)
        dx, _, _ = direct_conv2d_grads(x.astype(np.float64),
                                       w.astype(np.float64),
                                       grad.astype(np.float64), stride,
                                       padding)
        assert xt.grad.shape == dx.shape
        np.testing.assert_allclose(xt.grad, dx, rtol=1e-5, atol=1e-5)

    def test_frozen_weight_keeps_no_rows(self):
        # Scoring freezes every weight: the backward closure must not hold
        # the im2col rows, and the input gradient is unchanged.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        grads = []
        for frozen in (False, True):
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=not frozen)
            out = conv2d(xt, wt, stride=1, padding=1)
            held = [cell.cell_contents for cell in out._backward.__closure__]
            assert any(isinstance(v, np.ndarray) and v.shape == (72, 27)
                       for v in held) is not frozen
            out.backward(np.ones(out.shape, dtype=np.float32))
            grads.append(xt.grad)
            assert (wt.grad is None) is frozen
        np.testing.assert_array_equal(grads[0], grads[1])


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data, [[[[4.0]]]])

    def test_max_pool_gradient_goes_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, [[[[0, 0], [0, 1.0]]]])

    def test_max_pool_gradcheck(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        check_gradients(lambda a: max_pool2d(a, 2), [x])

    def test_max_pool_with_stride(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
        out = max_pool2d(x, 2, stride=3)
        assert out.shape == (1, 1, 2, 2)
        check_gradients(lambda a: max_pool2d(a, 2, stride=3), [x])

    def test_overlapping_max_pool_gradcheck(self):
        # kernel 3, stride 2: neighbouring windows share a row/column, so
        # an input can collect gradient from several windows.
        rng = np.random.default_rng(10)
        # Distinct values 0.02 apart, well clear of the 1e-3 FD step.
        x = Tensor((rng.permutation(252).reshape(2, 3, 7, 6) - 126) * 0.02,
                   requires_grad=True)
        assert max_pool2d(x, 3, stride=2).shape == (2, 3, 3, 2)
        check_gradients(lambda a: max_pool2d(a, 3, stride=2), [x])
        x = Tensor(channels_last(x.data), requires_grad=True)
        check_gradients(lambda a: max_pool2d(a, 3, stride=2), [x])

    def test_max_pool_tie_goes_to_first_max(self):
        # Equal maxima: the first in (i, j) tap order takes the gradient,
        # once per window, also where overlapping windows share it.
        x = np.zeros((1, 1, 5, 5), dtype=np.float32)
        x[0, 0, 0, 1] = x[0, 0, 1, 0] = 2.0      # tie inside window (0, 0)
        x[0, 0, 2, 2] = x[0, 0, 2, 4] = 3.0      # shared by windows (0/1, 1)
        x[0, 0, 4, 0] = x[0, 0, 4, 1] = 1.0      # window (1, 0) ties 1.0 vs 3.0
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t, 3, stride=2)
        np.testing.assert_array_equal(out.data, [[[[3.0, 3.0], [3.0, 3.0]]]])
        out.sum().backward()
        expected = np.zeros_like(x)
        expected[0, 0, 2, 2] = 4.0               # first max of all four windows
        np.testing.assert_array_equal(t.grad, expected)
        y = Tensor(np.array([[[[1.0, 2.0], [2.0, 0.0]]]]), requires_grad=True)
        max_pool2d(y, 2).sum().backward()
        np.testing.assert_array_equal(y.grad, [[[[0.0, 1.0], [0.0, 0.0]]]])

    def test_max_pool_output_is_channels_last(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        out = max_pool2d(x, 2)
        assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous
        with no_grad():
            np.testing.assert_array_equal(max_pool2d(x, 2).data, out.data)

    def test_avg_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        np.testing.assert_allclose(avg_pool2d(x, 2).data, [[[[2.5]]]])

    def test_avg_pool_gradcheck(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda a: avg_pool2d(a, 2), [x])

    def test_global_avg_pool(self):
        from repro.tensor import global_avg_pool2d
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)), rtol=1e-5)


def loop_max_pool(x, kernel, stride, grad):
    """Loop reference for max pooling: ``(out, dx)``.

    The first maximum of each window in ``(i, j)`` tap order takes the
    window's gradient. Taps are visited in that order across all windows,
    so overlapping windows add into an input in the kernel's own order and
    the float32 sums compare bitwise.
    """
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    first = np.empty((n, c, oh, ow), dtype=np.intp)
    for idx in np.ndindex(n, c, oh, ow):
        ni, ci, y, xx = idx
        window = x[ni, ci, y * stride:y * stride + kernel,
                   xx * stride:xx * stride + kernel].reshape(-1)
        out[idx] = window.max()
        first[idx] = int(np.flatnonzero(window == window.max())[0])
    dx = np.zeros_like(x)
    for t in range(kernel * kernel):
        i, j = divmod(t, kernel)
        for idx in np.ndindex(n, c, oh, ow):
            if first[idx] == t:
                ni, ci, y, xx = idx
                dx[ni, ci, y * stride + i, xx * stride + j] += grad[idx]
    return out, dx


@pytest.fixture
def nan_empty(monkeypatch):
    """``np.empty`` that fills floats with NaN, so unwritten scratch shows."""
    real = np.empty

    def empty(*args, **kwargs):
        out = real(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", empty)


class TestMaxPoolAgainstLoops:
    """Values and gradients bitwise equal to a loop reference, with many
    ties (few distinct values, ReLU-like zeros), on both layouts."""

    @pytest.mark.parametrize("shape,kernel,stride", [
        ((2, 3, 8, 8), 2, 2),      # tiled: every input in one window
        ((2, 3, 7, 6), 3, 2),      # overlapping windows
        ((2, 3, 8, 8), 2, 3),      # gapped windows
        ((2, 3, 5, 7), 2, 2),      # odd sizes: last row/column uncovered
        ((1, 2, 7, 7), 3, 3),      # tiled with an uncovered tail
    ])
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_bitwise_equal_to_loops(self, nan_empty, shape, kernel, stride,
                                    layout):
        rng = np.random.default_rng(sum(shape) + 10 * kernel + stride)
        x = np.maximum(rng.integers(-2, 3, size=shape), 0).astype(np.float32)
        if layout == "nhwc":
            x = channels_last(x)
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t, kernel, stride)
        grad = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad)
        ref_out, ref_dx = loop_max_pool(x, kernel, stride, grad)
        assert out.data.tobytes() == np.ascontiguousarray(ref_out).tobytes()
        assert np.ascontiguousarray(t.grad).tobytes() == ref_dx.tobytes()

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2)])
    def test_negative_zero_gradient_reads_as_a_sum(self, nan_empty, kernel,
                                                   stride):
        # The loop reference adds into zeros, so a -0.0 gradient lands as +0.0.
        rng = np.random.default_rng(kernel + stride)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t, kernel, stride)
        grad = np.where(rng.random(out.shape) < 0.5, -0.0,
                        rng.normal(size=out.shape)).astype(np.float32)
        out.backward(grad)
        _, ref_dx = loop_max_pool(x, kernel, stride, grad)
        assert np.ascontiguousarray(t.grad).tobytes() == ref_dx.tobytes()

    def test_window_holding_nan_passes_no_gradient(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        x[0, 0, 0, 1] = np.nan
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t, 2)
        assert np.isnan(out.data[0, 0, 0, 0])
        out.backward(np.ones(out.shape, dtype=np.float32))
        np.testing.assert_array_equal(t.grad[0, 0, :2, :2], 0.0)
        np.testing.assert_array_equal(t.grad[0, 0, 3, 3], 1.0)


def full_lowering_conv(x, w, b, stride, padding, grad):
    """Conv forward and weight gradient through the full ``kh*kw`` im2col
    lowering, padding taps included, and the loop reference's input
    gradient: ``(out, dx, dw, db)``."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(wd, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    w2d = w.transpose(0, 2, 3, 1).reshape(o, -1)
    out = (cols @ w2d.T + b).reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
    g = grad.transpose(0, 2, 3, 1).reshape(-1, o)
    dx = direct_conv2d_grads(x, w, grad, stride, padding)[0]
    dw = (g.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
    return out, dx, dw, g.sum(axis=0)


class TestCentreTapConv:
    """A 1x1 input under "same" padding is convolved with the centre tap
    alone; it must match the full lowering and pass a gradcheck."""

    @pytest.mark.parametrize("k,padding,stride", [(3, 1, 1), (3, 1, 2),
                                                  (1, 0, 1), (5, 2, 1)])
    def test_matches_full_lowering(self, k, padding, stride):
        rng = np.random.default_rng(20 + k + stride)
        x = Tensor(rng.normal(size=(6, 5, 1, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = conv2d(x, w, b, stride=stride, padding=padding)
        assert out.shape == (6, 4, 1, 1)
        grad = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad)
        ref_out, ref_dx, ref_dw, ref_db = full_lowering_conv(
            x.data, w.data, b.data, stride, padding, grad)
        for got, ref in ((out.data, ref_out), (x.grad, ref_dx),
                         (w.grad, ref_dw), (b.grad, ref_db)):
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)
        dead = np.ones((k, k), dtype=bool)
        dead[padding, padding] = False
        assert (w.grad[:, :, dead] == 0.0).all()

    @pytest.mark.parametrize("k,padding,stride", [(3, 1, 1), (3, 1, 2),
                                                  (1, 0, 1)])
    def test_gradcheck(self, k, padding, stride):
        rng = np.random.default_rng(30 + k + stride)
        x = Tensor(rng.normal(size=(3, 4, 1, 1)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        check_gradients(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding),
            [x, w, b])
