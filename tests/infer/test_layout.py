"""Channels-last runtime layout: compiled ≈ eager on the shapes it changes.

4-D float values live as NHWC memory behind NCHW views. Each case below
drives a lowering whose indexing depends on that layout: strided and
non-square convolutions, the 1×1 downsample joined by ``add_relu``,
average pooling, a flatten feeding a linear layer (which reads NHWC
memory through permuted weight columns) or anything else, and
observing hooks. The lowerings chosen by shape are covered too: the
centre tap of a 1×1 input, the row-padded conv on the plan input and
separable pooling.
"""

import tracemalloc

import numpy as np
import pytest

from repro.infer import InferenceEngine, compile_model
from repro.infer.optimize import dequantize_weights
from repro.models import build_model
from repro.nn import (AvgPool2d, Conv2d, Flatten, GlobalAvgPool2d, Linear,
                      MaxPool2d, ReLU, Sequential)
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


def _scratch_shape(engine, step, name):
    return engine.arena._scratch[(step.output, name)].shape


class TestCentreTap:
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_by_one_input_runs_the_centre_tap(self, k, stride):
        model = Sequential(
            Conv2d(3, 6, 1, rng=_rng()), ReLU(),
            Conv2d(6, 8, k, stride=stride, padding=k // 2, rng=_rng()),
            ReLU(), GlobalAvgPool2d(), Linear(8, 3, rng=_rng()))
        engine = _check(model, _inputs((5, 3, 1, 1)), max_batch=8)
        conv = [s for s in engine.plan.steps if s.op == "conv2d_relu"][1]
        assert conv.params["weight"].shape[2:] == (k, k)
        assert _scratch_shape(engine, conv, "cols") == (8, 6 + 1)

    @pytest.mark.parametrize("k", [3, 5])
    def test_on_the_plan_input(self, k):
        model = Sequential(Conv2d(4, 8, k, padding=k // 2, rng=_rng()))
        engine = _check(model, _inputs((3, 4, 1, 1)))
        # One row of C + 1 columns (the centre tap and the bias) per image.
        cols = _scratch_shape(engine, engine.plan.steps[0], "cols")
        assert np.prod(cols) == 3 * (4 + 1)


class TestRowPaddedConv:
    """Stride-1 convs on the plan input: taps are runs of padded rows."""

    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1), (5, 0),
                                           (5, 1), (5, 2)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_matches_eager(self, k, padding, bias, relu):
        layers = [Conv2d(3, 5, k, padding=padding, bias=bias, rng=_rng())]
        model = Sequential(*layers, *([ReLU()] if relu else []))
        x = _inputs((5, 3, 7, 10))
        engine = _check(model, x, max_batch=8)
        (conv,) = engine.plan.steps
        oh = 7 + 2 * padding - k + 1
        assert _scratch_shape(engine, conv, "wide") \
            == (8, oh, 10 + 2 * padding, 5)
        # The plan input is read in whatever layout the caller passes.
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        np.testing.assert_array_equal(
            engine.run(nhwc.transpose(0, 3, 1, 2)), engine.run(x))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_strided_conv_on_the_plan_input_uses_im2col(self, padding):
        model = Sequential(
            Conv2d(3, 6, 3, stride=2, padding=padding, rng=_rng()), ReLU())
        engine = _check(model, _inputs((4, 3, 9, 12)), max_batch=6)
        (conv,) = engine.plan.steps
        assert (conv.output, "wide") not in engine.arena._scratch
        assert _scratch_shape(engine, conv, "cols")[1] == 3 * 3 * 3 + 1

    def test_strided_conv_on_the_plan_input_allocates_only_the_output(self):
        model = Sequential(Conv2d(3, 8, 3, stride=2, rng=_rng()))
        model.eval()
        x = _inputs((16, 3, 33, 33))
        engine = compile_model(model, x)
        engine.run(x)
        tracemalloc.start()
        try:
            out = engine.run(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + x.nbytes // 4


def _pool_loop(x, k, s, combine):
    """The k² loop separable pooling replaces, over an NCHW array."""
    n, c, h, w = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    out = None
    for i in range(k):
        for j in range(k):
            tap = x[:, :, i:i + oh * s:s, j:j + ow * s:s]
            out = tap.copy() if out is None else combine(out, tap)
    return out


class TestSeparablePooling:
    @pytest.mark.parametrize("k,s", [(2, 2), (3, 3), (3, 2)])
    @pytest.mark.parametrize("hw", [(9, 11), (7, 13)])
    def test_max_pool_equals_the_window_loop_bitwise(self, k, s, hw):
        model = Sequential(Conv2d(3, 6, 3, padding=1, rng=_rng()), ReLU(),
                           MaxPool2d(k, stride=s))
        model.eval()
        x = _inputs((5,) + (3,) + hw)
        engine = compile_model(model, x, max_batch=8)
        conv = engine.plan.steps[0]
        for n in (5, 2):
            seen = []
            out = engine.run_observing(
                x[:n], {conv.output: lambda v: seen.append(np.array(v))})
            np.testing.assert_array_equal(
                out, _pool_loop(seen[0], k, s, np.maximum))

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 2)])
    def test_avg_pool_matches_the_window_loop(self, k, s):
        model = Sequential(Conv2d(3, 6, 3, padding=1, rng=_rng()), ReLU(),
                           AvgPool2d(k, stride=s))
        model.eval()
        x = _inputs((4, 3, 9, 11))
        engine = compile_model(model, x)
        conv = engine.plan.steps[0]
        seen = []
        out = engine.run_observing(
            x, {conv.output: lambda v: seen.append(np.array(v))})
        np.testing.assert_allclose(
            out, _pool_loop(seen[0], k, s, np.add) / (k * k),
            rtol=1e-6, atol=1e-6)


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
        model = build_model("vgg11", num_classes=3, image_size=64,
                            width=0.25, head="flatten", seed=0)
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        x = _inputs((4, 3, 64, 64))
        engine = compile_model(model, x, quantize="int8")
        fp32 = InferenceEngine(dequantize_weights(engine.plan), max_batch=4)
        np.testing.assert_array_equal(engine.run(x[:3]), fp32.run(x[:3]))


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
    def test_int8_engine_observes_fp32_values(self, name):
        # Hooks on an int8 engine see exactly what they see on the fp32
        # engine over the dequantized weights, at every batch size.
        model = build_model(name, **INFER_CASES[name])
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        x = _inputs((6, 3, 8, 8))
        engine = compile_model(model, x, quantize="int8")
        fp32 = InferenceEngine(dequantize_weights(engine.plan), max_batch=6)
        vids = [s.output for s in engine.plan.steps]
        for n in (1, 4, 6):
            seen = {e: {} for e in ("int8", "fp32")}
            outs = [eng.run_observing(x[:n], {
                vid: (lambda v, vid=vid, key=key:
                      seen[key].__setitem__(vid, np.array(v)))
                for vid in vids})
                for key, eng in (("int8", engine), ("fp32", fp32))]
            np.testing.assert_array_equal(*outs)
            for vid in vids:
                np.testing.assert_array_equal(seen["int8"][vid],
                                              seen["fp32"][vid])
