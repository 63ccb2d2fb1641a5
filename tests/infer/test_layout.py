"""Channels-last runtime layout: compiled ≈ eager on the shapes it changes.

4-D float values live as NHWC memory behind NCHW views. Each case below
drives a lowering whose indexing depends on that layout: strided and
non-square convolutions, the 1×1 downsample joined by ``add_relu``,
average pooling, a flatten feeding a linear layer (which reads NHWC
memory through permuted weight columns) or anything else, and
calibration hooks.
"""

import numpy as np
import pytest

from repro.infer import compile_model
from repro.models import build_model
from repro.nn import (AvgPool2d, Conv2d, Flatten, GlobalAvgPool2d, Linear,
                      ReLU, Sequential)
from repro.tensor import Tensor, no_grad
from repro.verify.invariants import INFER_CASES, perturb_batchnorm_stats

RTOL, ATOL = 1e-4, 1e-5


def _inputs(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def _eager(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _check(model, x, max_batch=None):
    model.eval()
    engine = compile_model(model, x, max_batch=max_batch, validate=False)
    for n in sorted({x.shape[0], 1, max(x.shape[0] // 2, 1)}):
        np.testing.assert_allclose(engine.run(x[:n]), _eager(model, x[:n]),
                                   rtol=RTOL, atol=ATOL)
    return engine


def _rng():
    return np.random.default_rng(3)


class TestConvLayouts:
    def test_stride_two_conv_on_a_non_square_input(self):
        model = Sequential(
            Conv2d(3, 8, 3, stride=2, padding=1, rng=_rng()), ReLU(),
            Conv2d(8, 6, 3, stride=2, rng=_rng()), ReLU(),
            GlobalAvgPool2d(), Linear(6, 4, rng=_rng()))
        _check(model, _inputs((5, 3, 9, 12)))

    def test_conv_of_a_computed_value_on_a_non_square_input(self):
        model = Sequential(
            Conv2d(3, 4, 1, rng=_rng()), ReLU(),
            Conv2d(4, 8, 3, padding=1, rng=_rng()), ReLU(),
            Conv2d(8, 5, 3, stride=2, padding=1, rng=_rng()),
            GlobalAvgPool2d(), Linear(5, 3, rng=_rng()))
        _check(model, _inputs((4, 3, 7, 10)))

    def test_resnet_downsample_joins_add_relu(self):
        model = build_model("resnet20", **INFER_CASES["resnet20"])
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        x = _inputs((6, 3, 8, 8))
        engine = _check(model, x)
        steps = engine.plan.steps
        producer = {s.output: s for s in steps}
        joins = [s for s in steps if s.op == "add_relu"]
        downsampled = [
            producer[vid] for s in joins for vid in s.inputs
            if vid in producer and producer[vid].op == "conv2d"
            and producer[vid].params["weight"].shape[2:] == (1, 1)
            and producer[vid].params["stride"] == 2]
        assert downsampled, "no 1x1 stride-2 conv feeds an add_relu"

    def test_avg_pool(self):
        model = Sequential(
            Conv2d(3, 8, 3, padding=1, rng=_rng()), ReLU(), AvgPool2d(2),
            Conv2d(8, 6, 3, padding=1, rng=_rng()), AvgPool2d(2, stride=1),
            GlobalAvgPool2d(), Linear(6, 3, rng=_rng()))
        engine = _check(model, _inputs((4, 3, 8, 10)))
        assert engine.plan.op_counts()["avg_pool2d"] == 2


class TestFlatten:
    def test_vgg11_flatten_head_permutes_the_linear_layer(self):
        model = build_model("vgg11", num_classes=3, image_size=64,
                            width=0.125, head="flatten", seed=0)
        perturb_batchnorm_stats(model, seed=0)
        assert model.final_spatial > 1       # a non-trivial permutation
        engine = _check(model, _inputs((3, 3, 64, 64)))
        ops = [s.op for s in engine.plan.steps]
        assert ops[ops.index("flatten") + 1] == "linear"

    def test_observed_flatten_keeps_nchw_order(self):
        model = Sequential(
            Conv2d(3, 4, 3, padding=1, rng=_rng()), Flatten(),
            Linear(4 * 5 * 6, 3, rng=_rng()))
        model.eval()
        x = _inputs((2, 3, 5, 6))
        engine = _check(model, x)
        (flat,) = [s for s in engine.plan.steps if s.op == "flatten"]
        seen = []
        engine.run_observing(x, {flat.output: lambda v: seen.append(
            np.array(v))})
        with no_grad():
            expected = model[0](Tensor(x)).data.reshape(2, -1)
        np.testing.assert_allclose(seen[0], expected, rtol=RTOL, atol=ATOL)

    def test_flatten_feeding_a_non_linear_op_keeps_nchw_order(self):
        model = Sequential(
            Conv2d(3, 4, 3, padding=1, rng=_rng()), Flatten(), ReLU(),
            Linear(4 * 5 * 6, 3, rng=_rng()))
        _check(model, _inputs((3, 3, 5, 6)))

    def test_int8_engine_with_flatten_head(self):
        from repro.qinfer import run_reference

        model = build_model("vgg11", num_classes=3, image_size=64,
                            width=0.25, head="flatten", seed=0)
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        x = _inputs((4, 3, 64, 64))
        engine = compile_model(model, x, quantize="int8",
                               calibrate=[_inputs((4, 3, 64, 64), 1)])
        np.testing.assert_array_equal(engine.run(x[:3]),
                                      run_reference(engine.plan, x[:3]))


class TestObservingHooks:
    def test_hooks_see_nchw_views_of_nhwc_memory(self):
        model = build_model("vgg11", **INFER_CASES["vgg11"])
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        x = _inputs((4, 3, 8, 8))
        engine = compile_model(model, x)
        first = engine.plan.steps[0]
        assert first.op == "conv2d_relu"
        seen = []

        def hook(view):
            assert view.transpose(0, 2, 3, 1).flags.c_contiguous
            seen.append(np.array(view))

        engine.run_observing(x, {first.output: hook})
        (value,) = seen
        with no_grad():
            stem = Sequential(*[model.features[i] for i in range(3)])
            expected = stem(Tensor(x)).data
        assert value.shape == expected.shape            # NCHW shape
        np.testing.assert_allclose(value, expected, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("name", ["vgg11", "resnet20"])
    def test_calibrated_int8_engine_matches_reference(self, name):
        from repro.qinfer import run_reference

        model = build_model(name, **INFER_CASES[name])
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        x = _inputs((6, 3, 8, 8))
        engine = compile_model(model, x, quantize="int8",
                               calibrate=[_inputs((6, 3, 8, 8), 2)])
        for n in (1, 4, 6):
            np.testing.assert_array_equal(engine.run(x[:n]),
                                          run_reference(engine.plan, x[:n]))
