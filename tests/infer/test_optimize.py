"""BN folding, ReLU fusion and int8 weight codes: numerics and safety."""

import numpy as np
import pytest

from repro.infer import (InferenceEngine, capture_plan, fold_batchnorm,
                         fuse_relu, optimize_plan)
from repro.infer.optimize import _quantize_weight
from repro.nn import BatchNorm2d, Conv2d, Module, ReLU, Sequential
from repro.tensor import Tensor, no_grad, ops


def _conv_bn(seed=0):
    rng = np.random.default_rng(seed)
    model = Sequential(Conv2d(3, 6, 3, padding=1), BatchNorm2d(6))
    bn = model[1]
    bn.running_mean += rng.normal(size=6).astype(np.float32)
    bn.running_var *= np.exp(rng.normal(scale=0.3, size=6)).astype(np.float32)
    bn.weight.data = rng.normal(loc=1.0, scale=0.2, size=6).astype(np.float32)
    bn.bias.data = rng.normal(size=6).astype(np.float32)
    model.eval()
    return model


def _example(seed=0):
    rng = np.random.default_rng(seed + 100)
    return rng.normal(size=(4, 3, 8, 8)).astype(np.float32)


def _eager(model, x):
    with no_grad():
        return model(Tensor(x)).data


class TestBatchNormFolding:
    def test_bn_step_disappears(self):
        plan = capture_plan(_conv_bn(), _example())
        folded, count = fold_batchnorm(plan)
        assert count == 1
        assert "batchnorm" not in folded.op_counts()
        assert len(folded) == len(plan) - 1

    def test_folded_numerics_match_eager(self):
        model = _conv_bn()
        x = _example()
        plan = capture_plan(model, x)
        folded, _ = fold_batchnorm(plan)
        engine = InferenceEngine(folded)
        np.testing.assert_allclose(engine.run(x), _eager(model, x),
                                   rtol=1e-4, atol=1e-5)

    def test_folded_weights_use_scale_and_shift(self):
        model = _conv_bn()
        plan = capture_plan(model, _example())
        folded, _ = fold_batchnorm(plan)
        conv_step = folded.steps[0]
        bn = model[1]
        scale = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
        expected_w = model[0].weight.data * scale[:, None, None, None]
        np.testing.assert_allclose(conv_step.params["weight"], expected_w,
                                   rtol=1e-6, atol=1e-7)

    def test_fanout_two_blocks_folding(self):
        class PreBNReused(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(3, 6, 3, padding=1)
                self.bn = BatchNorm2d(6)

            def forward(self, x):
                pre = self.conv(x)
                # The pre-BN activation is consumed twice: folding the BN
                # into the conv would corrupt the second consumer.
                return ops.add(self.bn(pre), pre)

        model = PreBNReused()
        model.eval()
        x = _example()
        plan = capture_plan(model, x)
        folded, count = fold_batchnorm(plan)
        assert count == 0
        assert folded.op_counts()["batchnorm"] == 1
        engine = InferenceEngine(folded)
        np.testing.assert_allclose(engine.run(x), _eager(model, x),
                                   rtol=1e-4, atol=1e-5)

    def test_original_plan_is_not_mutated(self):
        model = _conv_bn()
        plan = capture_plan(model, _example())
        weight_before = plan.steps[0].params["weight"].copy()
        fold_batchnorm(plan)
        np.testing.assert_array_equal(plan.steps[0].params["weight"],
                                      weight_before)
        assert plan.op_counts()["batchnorm"] == 1


class TestReLUFusion:
    def test_conv_relu_fuses(self):
        model = Sequential(Conv2d(3, 4, 3, padding=1), ReLU())
        model.eval()
        x = _example()
        plan = capture_plan(model, x)
        fused, count = fuse_relu(plan)
        assert count == 1
        assert fused.op_counts() == {"conv2d_relu": 1}
        engine = InferenceEngine(fused)
        np.testing.assert_allclose(engine.run(x), _eager(model, x),
                                   rtol=1e-5, atol=1e-6)

    def test_fused_numerics_clamp_negatives(self):
        model = Sequential(Conv2d(3, 4, 3, padding=1), ReLU())
        model.eval()
        x = _example()
        engine = InferenceEngine(fuse_relu(capture_plan(model, x))[0])
        assert np.min(engine.run(x)) >= 0.0

    def test_fanout_two_blocks_fusion(self):
        class PreReLUReused(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(3, 4, 3, padding=1)
                self.act = ReLU()

            def forward(self, x):
                pre = self.conv(x)
                return ops.add(self.act(pre), pre)

        model = PreReLUReused()
        model.eval()
        x = _example()
        plan = capture_plan(model, x)
        fused, count = fuse_relu(plan)
        assert count == 0
        engine = InferenceEngine(fused)
        np.testing.assert_allclose(engine.run(x), _eager(model, x),
                                   rtol=1e-4, atol=1e-5)


class TestOptimizePipeline:
    def test_bn_then_relu_collapses_conv_bn_relu(self):
        model = Sequential(Conv2d(3, 6, 3, padding=1), BatchNorm2d(6), ReLU())
        model[1].running_mean += 0.5
        model.eval()
        x = _example()
        plan = capture_plan(model, x)
        optimized, report = optimize_plan(plan)
        assert report.folded_batchnorm == 1
        assert report.fused_relu == 1
        assert optimized.op_counts() == {"conv2d_relu": 1}
        assert "1 BN folded" in report.summary()
        engine = InferenceEngine(optimized)
        np.testing.assert_allclose(engine.run(x), _eager(model, x),
                                   rtol=1e-4, atol=1e-5)

    def test_resnet_residual_add_fuses_relu(self):
        from repro.models import build_model
        model = build_model("resnet20", num_classes=3, image_size=8,
                            width=0.25, seed=0)
        model.eval()
        plan = capture_plan(model, _example())
        optimized, report = optimize_plan(plan)
        counts = optimized.op_counts()
        assert counts.get("add_relu", 0) >= 9       # one per BasicBlock
        assert "batchnorm" not in counts
        assert report.steps_after < report.steps_before


class TestQuantizeWeight:
    def test_roundtrip_error_bounded_by_half_step(self):
        w = np.random.default_rng(0).normal(size=(6, 3, 3, 3)).astype(
            np.float32)
        q, scale = _quantize_weight(w)
        assert q.dtype == np.int8 and scale.shape == (6, 1, 1, 1)
        assert (np.abs(q * scale - w) <= scale / 2 + 1e-7).all()

    def test_grid_is_symmetric(self):
        w = np.array([[-1.0, 1.0]], dtype=np.float32)
        q, _ = _quantize_weight(w)
        assert q[0, 0] == -q[0, 1] == -127

    def test_codes_within_range(self):
        w = np.random.default_rng(1).normal(size=(4, 100)).astype(np.float32)
        q, _ = _quantize_weight(w)
        assert q.max() <= 127 and q.min() >= -127
        # Each channel's largest |x| sits exactly on the grid's edge.
        assert (np.abs(q).max(axis=1) == 127).all()

    def test_per_channel_scales_adapt(self):
        w = np.stack([np.full(4, 0.01), np.full(4, 10.0)]).astype(np.float32)
        q, scale = _quantize_weight(w)
        assert scale.reshape(-1)[1] > scale.reshape(-1)[0]
        np.testing.assert_allclose(q * scale, w, rtol=0.02)

    def test_asymmetric_range_clamps_instead_of_wrapping(self):
        # The scale comes from max |x|, so the larger side of a channel is
        # exactly ±127 and the other side rounds inside the grid.
        w = np.array([[10.0, -10.4], [-1.0, 1.0]], dtype=np.float32)
        q, scale = _quantize_weight(w)
        assert scale[0, 0] == pytest.approx(10.4 / 127)
        assert q[0].tolist() == [122, -127]
        assert q[1].tolist() == [-127, 127]
        np.testing.assert_allclose(q[0, 1] * scale[0, 0], -10.4, rtol=1e-6)

    def test_nan_and_inf_raise_with_count(self):
        w = np.array([[1.0, np.nan], [np.inf, 2.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="2 NaN/inf"):
            _quantize_weight(w)

    def test_all_zero_channel_gets_unit_scale(self):
        # A dead (fully pruned-around) channel must not produce a 0 or
        # NaN scale; its codes are exactly zero under any finite scale.
        w = np.stack([np.zeros(4), np.full(4, 2.0)]).astype(np.float32)
        q, scale = _quantize_weight(w)
        assert scale.reshape(-1)[0] == 1.0
        np.testing.assert_array_equal(q[0], 0)
        np.testing.assert_allclose(q[1] * scale[1], w[1], rtol=0.01)
