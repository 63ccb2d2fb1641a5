"""Int8 weight storage: codes on every conv and linear, fp32 arithmetic."""

import numpy as np
import pytest

from repro.infer import InferenceEngine, compile_model
from repro.infer.optimize import dequantize_weight, dequantize_weights
from repro.models import build_model
from repro.tensor import Tensor, no_grad
from repro.verify.invariants import perturb_batchnorm_stats

_WEIGHT_OPS = ("conv2d", "conv2d_relu", "linear", "linear_relu")


def _inputs(seed=0, shape=(16, 3, 8, 8)):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def _model(name, width=0.25, seed=0):
    model = build_model(name, num_classes=3, image_size=8, width=width,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    return model.eval()


def _quantized(name, width=0.25, seed=0):
    model = _model(name, width, seed)
    return model, compile_model(model, _inputs(seed), max_batch=16,
                                quantize="int8")


class TestWeightOnlyStorage:
    def test_kept_float_layers_store_int8_codes(self):
        # Every layer runs on the float engine and ships int8 weights,
        # dequantized once at engine build: one byte per weight on disk.
        _, engine = _quantized("vgg11")
        float_convs = [s for s in engine.plan.steps
                       if s.op in ("conv2d", "conv2d_relu")]
        assert float_convs
        for step in float_convs:
            assert "weight" not in step.params
            assert step.params["weight_q"].dtype == np.int8
            assert step.params["w_scale"].dtype == np.float32

    def test_no_float32_weight_arrays_remain(self):
        _, engine = _quantized("vgg11")
        for step in engine.plan.steps:
            for key, value in step.params.items():
                if key in ("weight", "weight_q"):
                    assert value.dtype == np.int8, \
                        f"{step.op}.{key} stored at {value.dtype}"

    @pytest.mark.parametrize("name", ["vgg11", "resnet20", "mlp"])
    def test_every_conv_and_linear_stores_codes(self, name):
        # The first conv and the smallest linear layer included: no shape
        # decides which layers are quantized.
        _, engine = _quantized(name)
        layers = [s for s in engine.plan.steps if s.op in _WEIGHT_OPS]
        assert layers and all("weight_q" in s.params for s in layers)
        assert engine.quantized

    def test_only_weights_change(self):
        model = _model("resnet20")
        fp32 = compile_model(model, _inputs(), max_batch=16)
        int8 = compile_model(model, _inputs(), max_batch=16,
                             quantize="int8")
        assert not fp32.quantized
        assert [(s.op, s.inputs, s.output) for s in fp32.plan.steps] == \
            [(s.op, s.inputs, s.output) for s in int8.plan.steps]
        assert int8.plan.shapes == fp32.plan.shapes

    def test_output_is_float32(self):
        for name in ("vgg11", "resnet20", "mlp"):
            _, engine = _quantized(name)
            out = engine.run(_inputs(1))
            assert out.dtype == np.float32
            assert np.all(np.isfinite(out))


class TestInt8Engine:
    """The int8 engine is the fp32 engine over ``codes × scale``.

    Per-channel int8 weights keep logits within 1.0 absolute of eager on
    these models, and top-1 decisions agree on >= 90% of random probes —
    the same threshold the deploy gate enforces
    (``ModelRegistry.deploy(min_top1_agreement=0.9)``).
    """

    @pytest.mark.parametrize("name,width", [("vgg11", 0.25),
                                            ("resnet20", 0.25),
                                            ("mlp", 0.25)])
    def test_quantized_close_to_eager(self, name, width):
        model, engine = _quantized(name, width=width)
        x = _inputs(99)
        with no_grad():
            eager = model(Tensor(x)).data
        out = engine.run(x)
        assert np.max(np.abs(out - eager)) < 1.0
        top1 = np.mean(np.argmax(out, -1) == np.argmax(eager, -1))
        assert top1 >= 0.9

    def test_engine_equals_fp32_over_dequantized_weights(self):
        _, engine = _quantized("vgg11")
        fp32 = InferenceEngine(dequantize_weights(engine.plan),
                               max_batch=16)
        assert not fp32.quantized
        x = _inputs(5)
        for n in (1, 16):
            np.testing.assert_array_equal(engine.run(x[:n]), fp32.run(x[:n]))

    def test_dequantized_weight_is_codes_times_scale(self):
        _, engine = _quantized("vgg11")
        for step in dequantize_weights(engine.plan).steps:
            if step.op not in _WEIGHT_OPS:
                continue
            source = next(s for s in engine.plan.steps
                          if s.output == step.output).params
            expected = (source["weight_q"].astype(np.float32)
                        * source["w_scale"])
            assert step.params["weight"].tobytes() == expected.tobytes()
            assert dequantize_weight(source["weight_q"],
                                     source["w_scale"]).dtype == np.float32

    def test_batch_chunking_matches_single_shot(self):
        _, engine = _quantized("vgg11")
        x = np.concatenate([_inputs(7)] * 3)  # 48 > max_batch=16
        full = engine.run(x)
        parts = np.concatenate([engine.run(x[i:i + 16])
                                for i in range(0, 48, 16)])
        np.testing.assert_array_equal(full, parts)


class TestCompileModelQuantize:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="quantize"):
            compile_model(_model("mlp"), _inputs(), quantize="int4")

    def test_validation_checks_the_float_plan(self):
        # Under quantize the tolerance applies before the weights become
        # codes: a zero tolerance still trips on BN-folding noise, while
        # the default accepts it although int8 weights move the logits
        # far beyond it.
        from repro.infer import CompileValidationError

        model = _model("vgg11")
        with pytest.raises(CompileValidationError, match="diverges"):
            compile_model(model, _inputs(), quantize="int8", rtol=0.0,
                          atol=0.0)
        engine = compile_model(model, _inputs(), quantize="int8")
        with no_grad():
            eager = model(Tensor(_inputs())).data
        assert np.max(np.abs(engine.run(_inputs()) - eager)) > 1e-3
