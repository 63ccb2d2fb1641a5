"""Engine mechanics: batching, chunking, buffer reuse, validation."""

import numpy as np
import pytest

from repro.infer import CompileValidationError, compile_model
from repro.models import MODEL_REGISTRY, build_model
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


def _registry_engines():
    """Every registry model, dense and pruned, fp32 and int8."""
    return [(name, pruned, quantize)
            for name in sorted(MODEL_REGISTRY)
            for pruned in (False, True)
            for quantize in (None, "int8")]


class TestBoundPrograms:
    """An engine binds one program per batch size on first use and keeps
    it. Whatever the order of sizes and inputs, every output must equal,
    bitwise, that of a freshly built engine running the same input once:
    an input left out of the copy into the engine's buffer, a kept copy
    of a reshaped value, or a view of a size run earlier shows up as a
    difference."""

    MAX_BATCH = 4

    @pytest.mark.parametrize("name,pruned,quantize", _registry_engines())
    def test_outputs_equal_a_fresh_engine(self, name, pruned, quantize):
        from repro.infer import InferenceEngine
        from repro.infer.bench import _prune_model
        from repro.verify.invariants import INFER_CASES

        model = build_model(name, **INFER_CASES[name])
        perturb_batchnorm_stats(model, seed=0)
        if pruned:
            _prune_model(model, 0)
        model.eval()
        rng = np.random.default_rng(17)
        xs, ys = rng.normal(size=(2, self.MAX_BATCH + 3, 3, 8, 8)
                            ).astype(np.float32)
        engine = compile_model(model, xs[:self.MAX_BATCH], quantize=quantize,
                               validate=False)

        def fresh():
            return InferenceEngine(engine.plan, max_batch=self.MAX_BATCH)

        sizes = list(range(1, self.MAX_BATCH + 1))
        rng.shuffle(sizes)
        for n in sizes:
            # Two different inputs back to back at one batch size.
            for batch in (xs[:n], ys[self.MAX_BATCH + 3 - n:]):
                np.testing.assert_array_equal(
                    engine.run(batch), fresh().run(batch),
                    err_msg=f"{name} n={n}")
        chunked = ys[:self.MAX_BATCH + 3]
        np.testing.assert_array_equal(engine.run(chunked),
                                      fresh().run(chunked))

        watched = [engine.plan.input_id] + [s.output
                                            for s in engine.plan.steps[:3]]

        def observe(eng, x):
            seen = {vid: [] for vid in watched}
            hooks = {vid: (lambda v, vid=vid: seen[vid].append(np.array(v)))
                     for vid in watched}
            return eng.run_observing(x, hooks), seen

        for x in (xs[:2], ys[:self.MAX_BATCH + 1]):
            got, got_seen = observe(engine, x)
            want, want_seen = observe(fresh(), x)
            np.testing.assert_array_equal(got, want)
            for vid in watched:
                for a, b in zip(got_seen[vid], want_seen[vid], strict=True):
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_a_strided_conv_on_the_plan_input_sees_every_call(self, padding):
        # A strided conv on the plan input binds its im2col windows over
        # the engine's input buffer, which every call refills.
        from repro.infer import InferenceEngine
        from repro.nn import Conv2d, ReLU, Sequential

        model = Sequential(Conv2d(3, 6, 3, stride=2, padding=padding,
                                  rng=np.random.default_rng(3)), ReLU())
        model.eval()
        xs, ys = np.random.default_rng(5).normal(
            size=(2, 3, 3, 9, 9)).astype(np.float32)
        engine = compile_model(model, xs, validate=False)
        for x in (xs, ys, xs[:2], ys[:2]):
            fresh = InferenceEngine(engine.plan, max_batch=3)
            np.testing.assert_array_equal(engine.run(x), fresh.run(x))

    def test_a_kernel_reading_a_copying_flatten_is_bound_per_call(self):
        # The NCHW flatten of a conv's NHWC memory is a copy made on
        # every read; the ReLU reading it must see each call's copy.
        from repro.infer import InferenceEngine
        from repro.nn import Conv2d, Flatten, Linear, ReLU, Sequential

        rng = np.random.default_rng(3)
        model = Sequential(Conv2d(3, 4, 3, padding=1, rng=rng), Flatten(),
                           ReLU(), Linear(4 * 5 * 6, 3, rng=rng))
        model.eval()
        xs, ys = rng.normal(size=(2, 3, 3, 5, 6)).astype(np.float32)
        engine = compile_model(model, xs, validate=False)
        assert engine._copies
        for x in (xs, ys, xs[:2], ys[:2], xs[:2]):
            fresh = InferenceEngine(engine.plan, max_batch=3)
            np.testing.assert_array_equal(engine.run(x), fresh.run(x))
