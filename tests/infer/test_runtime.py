"""Engine mechanics: batching, chunking, buffer reuse, validation."""

import numpy as np
import pytest

from repro.infer import CompileValidationError, compile_model
from repro.models import build_model
from repro.tensor import Tensor, no_grad
from repro.verify.invariants import perturb_batchnorm_stats


def _model():
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=0)
    perturb_batchnorm_stats(model, seed=0)
    model.eval()
    return model


def _example(batch=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, 3, 8, 8)).astype(np.float32)


def _eager(model, x):
    with no_grad():
        return model(Tensor(x)).data


class TestInferenceEngine:
    def test_partial_batches_reuse_buffers(self):
        model = _model()
        engine = compile_model(model, _example(8))
        for n in (8, 3, 1, 5):
            x = _example(n, seed=n)
            np.testing.assert_allclose(engine.run(x), _eager(model, x),
                                       rtol=1e-4, atol=1e-5)

    def test_single_sample_promotion(self):
        model = _model()
        engine = compile_model(model, _example(4))
        sample = _example(1)[0]
        out = engine.run(sample)
        assert out.shape == (3,)
        np.testing.assert_allclose(out, _eager(model, sample[None])[0],
                                   rtol=1e-4, atol=1e-5)

    def test_oversized_batch_is_chunked(self):
        model = _model()
        engine = compile_model(model, _example(4), max_batch=4)
        x = _example(11, seed=3)
        np.testing.assert_allclose(engine.run(x), _eager(model, x),
                                   rtol=1e-4, atol=1e-5)

    def test_engine_is_callable(self):
        engine = compile_model(_model(), _example())
        x = _example()
        np.testing.assert_array_equal(engine(x), engine.run(x))

    def test_tensor_input_accepted(self):
        engine = compile_model(_model(), _example())
        x = _example()
        np.testing.assert_array_equal(engine.run(Tensor(x)), engine.run(x))

    def test_shape_mismatch_rejected(self):
        engine = compile_model(_model(), _example())
        with pytest.raises(ValueError, match="shape"):
            engine.run(np.zeros((2, 3, 16, 16), dtype=np.float32))

    def test_describe_reports_arena_and_optimization(self):
        engine = compile_model(_model(), _example())
        text = engine.describe()
        assert "max_batch=4" in text
        assert "BN folded" in text
        assert engine.arena.nbytes > 0

    def test_unoptimized_engine_matches(self):
        model = _model()
        x = _example()
        plain = compile_model(model, x, optimize=False)
        assert "batchnorm" in plain.plan.op_counts()
        np.testing.assert_allclose(plain.run(x), _eager(model, x),
                                   rtol=1e-4, atol=1e-5)


class TestCompileValidation:
    def test_validation_error_path_fires(self):
        # BN folding reorders float32 arithmetic, so a zero-tolerance
        # validation must trip — proving the check actually compares.
        with pytest.raises(CompileValidationError, match="diverges"):
            compile_model(_model(), _example(), rtol=0.0, atol=0.0)

    def test_default_tolerance_accepts_folding_noise(self):
        engine = compile_model(_model(), _example(), validate=True)
        assert engine.optimization.folded_batchnorm > 0

    def test_validate_false_skips_the_check(self):
        engine = compile_model(_model(), _example(), validate=False)
        assert engine.run(_example()).shape == (4, 3)
