"""Layer semantics: forward values, gradients, surgery methods."""

import numpy as np
import pytest

from repro.nn import (AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten,
                      GlobalAvgPool2d, Identity, Linear, MaxPool2d, ReLU)
from repro.tensor import Tensor, check_gradients


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestLinear:
    def test_forward_matches_manual(self):
        layer = Linear(3, 2, rng=np.random.default_rng(1))
        x = rand((4, 3), seed=2)
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 6

    def test_gradients(self):
        layer = Linear(3, 2, rng=np.random.default_rng(3))
        x = Tensor(rand((2, 3), seed=4), requires_grad=True)
        check_gradients(lambda x: layer(x), [x])

    def test_select_output_channels(self):
        layer = Linear(4, 6, rng=np.random.default_rng(5))
        original = layer.weight.data.copy()
        layer.select_output_channels(np.array([1, 3, 5]))
        assert layer.out_features == 3
        np.testing.assert_allclose(layer.weight.data, original[[1, 3, 5]])

    def test_select_input_channels_plain(self):
        layer = Linear(4, 2, rng=np.random.default_rng(6))
        original = layer.weight.data.copy()
        layer.select_input_channels(np.array([0, 2]))
        assert layer.in_features == 2
        np.testing.assert_allclose(layer.weight.data, original[:, [0, 2]])

    def test_select_input_channels_grouped(self):
        # 2 channels × 3 spatial positions = 6 inputs; keep channel 1.
        layer = Linear(6, 2, rng=np.random.default_rng(7))
        original = layer.weight.data.copy()
        layer.select_input_channels(np.array([1]), group_size=3)
        assert layer.in_features == 3
        np.testing.assert_allclose(layer.weight.data, original[:, 3:6])


class TestConv2d:
    def test_output_shape(self):
        layer = Conv2d(3, 8, kernel_size=3, padding=1)
        out = layer(Tensor(rand((2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_strided_shape(self):
        layer = Conv2d(3, 4, kernel_size=3, stride=2, padding=1)
        assert layer(Tensor(rand((1, 3, 8, 8)))).shape == (1, 4, 4, 4)

    def test_gradients_through_layer(self):
        layer = Conv2d(2, 3, kernel_size=3, padding=1,
                       rng=np.random.default_rng(8))
        x = Tensor(rand((1, 2, 4, 4), seed=9), requires_grad=True)
        check_gradients(lambda x: layer(x), [x])

    def test_select_output_channels_updates_bias(self):
        layer = Conv2d(2, 4, kernel_size=3)
        layer.bias.data[:] = np.arange(4)
        layer.select_output_channels(np.array([0, 3]))
        assert layer.out_channels == 2
        np.testing.assert_allclose(layer.bias.data, [0.0, 3.0])

    def test_select_input_channels(self):
        layer = Conv2d(3, 2, kernel_size=3)
        original = layer.weight.data.copy()
        layer.select_input_channels(np.array([2]))
        assert layer.in_channels == 1
        np.testing.assert_allclose(layer.weight.data, original[:, [2]])

    def test_surgery_clears_stale_grads(self):
        layer = Conv2d(2, 4, kernel_size=3, padding=1)
        out = layer(Tensor(rand((1, 2, 4, 4))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.select_output_channels(np.array([0, 1]))
        assert layer.weight.grad is None


class TestBatchNorm2d:
    def test_train_mode_normalises_batch(self):
        bn = BatchNorm2d(3)
        x = rand((8, 3, 4, 4), seed=10) * 5 + 2
        out = bn(Tensor(x))
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(3), atol=1e-4)
        np.testing.assert_allclose(std, np.ones(3), atol=1e-2)

    def test_running_stats_update_in_train_only(self):
        bn = BatchNorm2d(2)
        x = Tensor(rand((4, 2, 3, 3), seed=11) + 10.0)
        bn(x)
        assert bn.running_mean.mean() > 0.5
        frozen = bn.running_mean.copy()
        bn.eval()
        bn(x)
        np.testing.assert_allclose(bn.running_mean, frozen)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        rng = np.random.default_rng(12)
        for _ in range(50):
            bn(Tensor(rng.normal(2.0, 3.0, size=(16, 2, 4, 4)).astype(np.float32)))
        bn.eval()
        x = rng.normal(2.0, 3.0, size=(16, 2, 4, 4)).astype(np.float32)
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)),
                                   np.zeros(2), atol=0.3)

    def test_gradients_train_mode(self):
        bn = BatchNorm2d(2)
        x = Tensor(rand((3, 2, 3, 3), seed=13), requires_grad=True)
        check_gradients(lambda x: bn(x), [x])

    @pytest.mark.parametrize("training", [True, False])
    def test_one_node_gradcheck_channels_last(self, training):
        # One batch_norm tape node over (x, weight, bias), gradchecked for
        # all three on an NCHW view over NHWC memory (the layout conv
        # outputs have), which the output keeps.
        rng = np.random.default_rng(15)
        bn = BatchNorm2d(3)
        bn.weight.data = rng.normal(size=3).astype(np.float32)
        bn.bias.data = rng.normal(size=3).astype(np.float32)
        bn.running_mean[:] = rng.normal(size=3)
        bn.running_var[:] = np.exp(rng.normal(size=3))
        bn.train(training)
        nhwc = rand((3, 4, 2, 3), seed=16)
        x = Tensor(nhwc.transpose(0, 3, 1, 2), requires_grad=True)
        out = bn(x)
        assert out._op == "batch_norm"
        assert out._parents == (x, bn.weight, bn.bias)
        assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous
        # Weighted outputs: in train mode a plain sum is constant in x.
        weights = Tensor(rand((3, 3, 4, 2), seed=17))
        check_gradients(lambda x, w, b: bn(x) * weights,
                        [x, bn.weight, bn.bias])

    @pytest.mark.parametrize("hw", [(3, 2), (1, 1)])
    def test_eval_backward_with_frozen_affine(self, hw):
        # Taylor scoring: eval mode, γ/β frozen. The input gradient is
        # g·(γσ⁻¹), the forward's own per-channel scale, and no parameter
        # gradient is returned.
        rng = np.random.default_rng(18)
        bn = BatchNorm2d(3)
        bn.weight.data = rng.normal(size=3).astype(np.float32)
        bn.running_var[:] = np.exp(rng.normal(size=3))
        bn.eval()
        bn.weight.requires_grad = bn.bias.requires_grad = False
        x = Tensor(rand((4, 3) + hw, seed=19), requires_grad=True)
        out = bn(x)
        grad = rand(out.shape, seed=20)
        gx, gw, gb = out._backward(grad)
        assert gw is None and gb is None
        inv_std = (1.0 / np.sqrt(bn.running_var + bn.eps)).astype(np.float32)
        scale = bn.weight.data * inv_std
        np.testing.assert_array_equal(gx, grad * scale.reshape(1, -1, 1, 1))

    @pytest.mark.parametrize("hw", [(5, 3), (1, 1)])
    def test_eval_forward_matches_float64(self, hw):
        # Eval mode is one float32 affine x·(γσ⁻¹) + (β − μγσ⁻¹): within
        # float32 rounding of the float64 (x − μ)/σ·γ + β.
        rng = np.random.default_rng(22)
        bn = BatchNorm2d(4)
        bn.weight.data = rng.normal(size=4).astype(np.float32)
        bn.bias.data = rng.normal(size=4).astype(np.float32)
        bn.running_mean[:] = rng.normal(size=4)
        bn.running_var[:] = np.exp(rng.normal(size=4))
        bn.eval()
        x = rand((6, 4) + hw, seed=23) * 3 + 1
        out = bn(Tensor(x)).data
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous
        per_channel = [v.astype(np.float64).reshape(1, -1, 1, 1)
                       for v in (bn.running_mean, bn.running_var,
                                 bn.weight.data, bn.bias.data)]
        mean, var, gamma, beta = per_channel
        ref = (x.astype(np.float64) - mean) / np.sqrt(var + bn.eps) * gamma
        np.testing.assert_allclose(out, ref + beta, rtol=1e-5, atol=1e-5)

    def test_train_statistics_match_float64(self):
        # GEMV channel sums over an NCHW-contiguous input (one copy to
        # channels-last) give the batch statistics of a float64 reference;
        # the output is an NCHW view over NHWC memory.
        bn = BatchNorm2d(5)
        x = rand((16, 5, 6, 6), seed=21) * 3 + 1
        out = bn(Tensor(x)).data
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous
        x64 = x.astype(np.float64)
        mean, var = x64.mean(axis=(0, 2, 3)), x64.var(axis=(0, 2, 3))
        ref = (x64 - mean.reshape(1, -1, 1, 1)) / np.sqrt(
            var.reshape(1, -1, 1, 1) + bn.eps)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)
        count = x.size // 5
        np.testing.assert_allclose(bn.running_mean, 0.1 * mean, rtol=1e-5)
        np.testing.assert_allclose(bn.running_var,
                                   0.9 + 0.1 * var * count / (count - 1),
                                   rtol=1e-5)

    def test_affine_parameters_receive_gradients(self):
        bn = BatchNorm2d(2)
        bn(Tensor(rand((3, 2, 3, 3), seed=14))).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None

    def test_rejects_non_4d(self):
        bn = BatchNorm2d(2)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((3, 2))))

    def test_select_channels(self):
        bn = BatchNorm2d(4)
        bn.running_mean[:] = np.arange(4)
        bn.weight.data[:] = np.arange(4) + 1
        bn.select_channels(np.array([1, 2]))
        assert bn.num_features == 2
        np.testing.assert_allclose(bn.running_mean, [1.0, 2.0])
        np.testing.assert_allclose(bn.weight.data, [2.0, 3.0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        d = Dropout(0.5)
        d.eval()
        x = Tensor(rand((4, 4), seed=15))
        np.testing.assert_allclose(d(x).data, x.data)

    def test_p_zero_is_identity_in_train(self):
        d = Dropout(0.0)
        x = Tensor(rand((4, 4), seed=16))
        np.testing.assert_allclose(d(x).data, x.data)

    def test_train_mode_zeroes_and_scales(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = d(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        # Inverted dropout preserves the expectation.
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSimpleLayers:
    def test_identity(self):
        x = Tensor(rand((2, 3)))
        assert Identity()(x) is x

    def test_relu_layer(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_flatten_layer(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 4, 5))))
        assert out.shape == (2, 60)

    def test_max_pool_layer_defaults_stride_to_kernel(self):
        layer = MaxPool2d(2)
        assert layer.stride == 2
        assert layer(Tensor(rand((1, 2, 6, 6)))).shape == (1, 2, 3, 3)

    def test_avg_pool_layer(self):
        layer = AvgPool2d(3)
        assert layer(Tensor(rand((1, 2, 6, 6)))).shape == (1, 2, 2, 2)

    def test_global_avg_pool_layer(self):
        out = GlobalAvgPool2d()(Tensor(rand((2, 5, 4, 4))))
        assert out.shape == (2, 5)
