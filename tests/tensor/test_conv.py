"""Convolution and pooling: correctness vs naive loops + gradient checks."""

import numpy as np
import pytest

from repro.tensor import (Tensor, avg_pool2d, check_gradients, conv2d,
                          conv_output_size, max_pool2d)
from repro.tensor.conv import col2im, im2col


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


class TestIm2Col:
    def test_round_trip_is_multiplicity_weighted(self):
        # col2im(im2col(x)) adds each pixel once per window covering it;
        # with kernel=stride (non-overlapping) it is the identity.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 2, 2, stride=2, padding=0)
        back = col2im(cols, x.shape, 2, 2, stride=2, padding=0)
        np.testing.assert_allclose(back, x, rtol=1e-6)

    def test_adjointness(self):
        # <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        # that makes the conv backward pass correct. Two samples, so a
        # column-to-sample mix-up in the (C*kh*kw, N*OH*OW) layout shows.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float64)
        for stride, padding in ((1, 1), (2, 0), (2, 2)):
            cols = im2col(x, 3, 3, stride=stride, padding=padding)
            oh = conv_output_size(5, 3, stride, padding)
            assert cols.shape == (2 * 9, 2 * oh * oh)
            y = rng.normal(size=cols.shape)
            lhs = (cols * y).sum()
            rhs = (x * col2im(y, x.shape, 3, 3, stride=stride,
                              padding=padding)).sum()
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_column_count(self):
        x = np.zeros((1, 2, 6, 6), dtype=np.float32)
        cols = im2col(x, 3, 3, stride=1, padding=0)
        assert cols.shape == (2 * 9, 1 * 4 * 4)


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
