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

    def test_engine_is_freed_without_the_cycle_collector(self):
        # A reference cycle would keep every arena alive until the cycle
        # collector runs: validation of an int8 compile builds a throwaway
        # engine, so peak memory would grow with each compile.
        import gc
        import weakref

        engine = compile_model(_model(), _example())
        engine.run(_example())
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()

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


def _poisoned_empty(real_empty):
    """``np.empty`` whose memory reads as NaN, so a scratch buffer that
    relies on arriving zeroed shows it."""
    def empty(shape, dtype=float, *args, **kwargs):
        arr = real_empty(shape, dtype, *args, **kwargs)
        arr.fill(np.nan)
        return arr
    return empty


class TestArenaReuse:
    """Every batch size, in shuffled order, twice: slicing a reused arena
    must never leak rows of an earlier, larger batch into a result."""

    MAX_BATCH = 8

    @pytest.mark.parametrize("name", ["vgg11", "resnet20", "mlp"])
    def test_every_batch_size_repeats_bitwise(self, name, monkeypatch):
        from repro.infer import InferenceEngine
        from repro.infer.optimize import dequantize_weights
        from repro.verify.invariants import INFER_CASES

        model = build_model(name, **INFER_CASES[name])
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        rng = np.random.default_rng(11)
        shape = (self.MAX_BATCH, 3, 8, 8)
        xs = rng.normal(size=shape).astype(np.float32)
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", _poisoned_empty(np.empty))
            fp32 = compile_model(model, xs, validate=False)
            int8 = compile_model(model, xs, quantize="int8", validate=False)
        over_codes = InferenceEngine(dequantize_weights(int8.plan),
                                     max_batch=self.MAX_BATCH)

        sizes = list(range(1, self.MAX_BATCH + 1))
        first = {}
        for _ in range(2):
            rng.shuffle(sizes)
            for n in sizes:
                for kind, engine in (("fp32", fp32), ("int8", int8)):
                    out = engine.run(xs[:n])
                    assert out.flags.c_contiguous
                    ref = first.setdefault((kind, n), out)
                    np.testing.assert_array_equal(out, ref,
                                                  err_msg=f"{kind} n={n}")
        for n in sizes:
            np.testing.assert_allclose(first["fp32", n],
                                       _eager(model, xs[:n]),
                                       rtol=1e-4, atol=1e-5)
            np.testing.assert_array_equal(first["int8", n],
                                          over_codes.run(xs[:n]))
