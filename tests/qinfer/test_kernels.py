"""Int8 kernel exactness: certificates, chunking, float-reference accuracy."""

import numpy as np
import pytest

from repro.infer import compile_model
from repro.models import build_model
from repro.qinfer import F32_EXACT_LIMIT, QMAX, accumulation_chunks
from repro.qinfer.kernels import gemm_matrices, quantize_bias
from repro.qinfer.reference import run_reference
from repro.verify.invariants import perturb_batchnorm_stats


def _calibration(seed, shape=(16, 3, 8, 8), n=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape).astype(np.float32) for _ in range(n)]


def _quantized_engine(name="vgg11", seed=0, **kwargs):
    kwargs.setdefault("num_classes", 3)
    kwargs.setdefault("image_size", 8)
    kwargs.setdefault("width", 0.25)
    model = build_model(name, seed=seed, **kwargs)
    perturb_batchnorm_stats(model, seed=seed)
    model.eval()
    loader = _calibration(seed)
    return model, compile_model(model, loader[0], max_batch=16,
                                quantize="int8", calibrate=loader)


class TestCertificate:
    def test_single_chunk_when_bound_is_small(self):
        wq = np.ones((9, 4), dtype=np.int64)      # bound = 9 * 127 << 2^24
        assert accumulation_chunks(QMAX * np.abs(wq)) == [(0, 9)]

    def test_chunks_split_before_the_exactness_limit(self):
        # Adversarial: every tap contributes the maximum 127*127 product,
        # so only floor(2^24 / 127^2) = 1040 taps fit in one exact chunk.
        k = 4000
        rows = np.full((k, 1), QMAX * QMAX, dtype=np.int64)
        chunks = accumulation_chunks(rows)
        assert len(chunks) > 1
        assert chunks[0] == (0, F32_EXACT_LIMIT // (QMAX * QMAX))
        assert chunks[-1][1] == k
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert b == c and a < b
        for a, b in chunks:
            assert int(rows[a:b].sum(axis=0).max()) < F32_EXACT_LIMIT

    def test_bias_row_counts_toward_the_bound(self):
        wq = np.zeros((4, 2, 1, 1), dtype=np.int32)
        bias_q = np.array([F32_EXACT_LIMIT - 1, 0, 0, 0], dtype=np.int64)
        rows = gemm_matrices(wq, bias_q)[1]
        assert rows.shape == (2 * 1 * 1 + 1, 4)
        # Any weight contribution at all must now force a split.
        rows[0] = 1
        assert len(accumulation_chunks(rows)) > 1

    def test_degenerate_bias_rejected(self):
        wq = np.zeros((1, 1), dtype=np.int32)
        with pytest.raises(ValueError):
            gemm_matrices(wq, np.array([2 ** 25], dtype=np.int64))


class TestQuantizeBias:
    def test_integer_grid(self):
        bias = np.array([0.5, -1.25], dtype=np.float32)
        bq = quantize_bias(bias, np.array([0.1], np.float32), 0.05)
        assert bq.dtype == np.int64
        np.testing.assert_array_equal(bq, [100, -250])


class TestChunkedPathExactness:
    def test_adversarial_weights_stay_bitwise_exact(self):
        # A linear layer wide enough that saturated codes overflow the f32
        # bound: in_features * 127^2 >= 2^24 forces the chunked (f64
        # cross-chunk) accumulator, which must still match the exact
        # int64 reference bit for bit.
        from repro.nn import Linear, Module

        in_features = 1200  # 1200 * 127^2 ≈ 19.3M > 2^24: must chunk
        rng = np.random.default_rng(0)

        class Head(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(in_features, 8)

            def forward(self, x):
                return self.fc(x)

        model = Head()
        # Constant-magnitude weights quantize to saturated codes, the
        # worst case for the accumulator bound.
        signs = rng.choice([-1.0, 1.0], size=model.fc.weight.data.shape)
        model.fc.weight.data = (0.01 * signs).astype(np.float32)
        model.eval()

        loader = [(10.0 * rng.choice([-1.0, 1.0],
                                     size=(8, in_features))).astype(
                                         np.float32) for _ in range(2)]
        engine = compile_model(model, loader[0], max_batch=8,
                               quantize="int8", calibrate=loader,
                               observer="minmax")
        assert engine.quantized
        qlinear = [s for s in engine.plan.steps if s.op == "qlinear"]
        assert qlinear, "linear layer was not quantized"
        wq = qlinear[0].params["weight_q"]
        rows = gemm_matrices(wq, None)[1]
        assert len(accumulation_chunks(rows)) > 1, \
            "test is not exercising the chunked accumulator"
        x = (10.0 * rng.choice([-1.0, 1.0],
                               size=(8, in_features))).astype(np.float32)
        native = engine.run(x)
        reference = run_reference(engine.plan, x)
        np.testing.assert_array_equal(native, reference)


class TestFloatReferenceAccuracy:
    """Documented tolerance: quantized logits track eager float logits.

    int8 per-channel weights + per-tensor activations keep logits within
    1.0 absolute of eager on these models (residual adds accumulate the
    most requantization error), and top-1 decisions agree on >= 90% of
    random probes — the same threshold the deploy gate enforces
    (``ModelRegistry.deploy(min_top1_agreement=0.9)``).
    """

    @pytest.mark.parametrize("name,width", [("vgg11", 0.25),
                                            ("resnet20", 0.25),
                                            ("mlp", 0.25)])
    def test_quantized_close_to_eager(self, name, width):
        from repro.tensor import Tensor, no_grad

        model, engine = _quantized_engine(name, width=width)
        x = _calibration(99)[0]
        with no_grad():
            eager = model(Tensor(x)).data
        out = engine.run(x)
        assert np.max(np.abs(out - eager)) < 1.0
        top1 = np.mean(np.argmax(out, -1) == np.argmax(eager, -1))
        assert top1 >= 0.9

    def test_engine_matches_reference_bitwise(self):
        _, engine = _quantized_engine("vgg11")
        x = _calibration(5)[0]
        native = engine.run(x)
        reference = run_reference(engine.plan, x)
        assert native.dtype == reference.dtype
        np.testing.assert_array_equal(native, reference)

    def test_quantized_plan_contains_int8_steps(self):
        _, engine = _quantized_engine("vgg11")
        ops = {s.op for s in engine.plan.steps}
        assert "qconv2d" in ops
        # Boundaries: activations enter the int8 domain explicitly; the
        # final quantized op emits float32 from its epilogue (no separate
        # dequantize step needed), so the engine's output stays float.
        assert "quantize" in ops
        out = engine.run(_calibration(1)[0])
        assert out.dtype == np.float32
        assert engine.quantized

    def test_batch_chunking_matches_single_shot(self):
        _, engine = _quantized_engine("vgg11")
        x = np.concatenate([_calibration(7)[0]] * 3)  # 48 > max_batch=16
        full = engine.run(x)
        parts = np.concatenate([engine.run(x[i:i + 16])
                                for i in range(0, 48, 16)])
        np.testing.assert_array_equal(full, parts)


def _int8_engine(model, shape, max_batch=8, seed=0, **kwargs):
    model.eval()
    loader = _calibration(seed, shape=shape)
    return compile_model(model, loader[0], max_batch=max_batch,
                         quantize="int8", calibrate=loader, **kwargs)


class TestShapeLowerings:
    """Lowerings chosen by shape stay bitwise equal to the reference."""

    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (5, 1)])
    def test_centre_tap_qconv2d_matches_reference(self, k, stride):
        from repro.nn import (Conv2d, GlobalAvgPool2d, Linear, MaxPool2d,
                              ReLU, Sequential)

        rng = np.random.default_rng(1)
        model = Sequential(
            Conv2d(3, 16, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
            Conv2d(16, 16, k, stride=stride, padding=k // 2, rng=rng),
            ReLU(), Conv2d(16, 8, k, padding=k // 2, rng=rng), ReLU(),
            GlobalAvgPool2d(), Linear(8, 3, rng=rng))
        engine = _int8_engine(model, (6, 3, 4, 4))
        qconvs = [s for s in engine.plan.steps if s.op == "qconv2d"]
        assert len(qconvs) == 2
        for step in qconvs:
            assert step.params["weight_q"].shape[2:] == (k, k)
            assert engine.arena._scratch[(step.output, "cols")].shape[1] \
                == 16 + 1                      # centre tap + bias column
        x = _calibration(4, shape=(6, 3, 4, 4))[0]
        for n in (1, 6):
            np.testing.assert_array_equal(engine.run(x[:n]),
                                          run_reference(engine.plan, x[:n]))

    def test_centre_tap_keeps_the_whole_kernels_accumulator(self):
        # Saturated 3x3 codes over 128 channels need two certified chunks
        # (and run_reference's float64 epilogue); the centre tap alone
        # needs one, but must keep the float64 epilogue to stay bitwise.
        from repro.nn import (Conv2d, GlobalAvgPool2d, Linear, MaxPool2d,
                              ReLU, Sequential)

        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(3, 128, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
            Conv2d(128, 128, 3, padding=1, rng=rng), ReLU(),
            GlobalAvgPool2d(), Linear(128, 40, rng=rng))
        model[3].weight.data = (0.01 * rng.choice(
            [-1.0, 1.0], size=model[3].weight.data.shape)).astype(np.float32)
        engine = _int8_engine(model, (16, 3, 4, 4), max_batch=16,
                              observer="minmax")
        (step,) = [s for s in engine.plan.steps if s.op == "qconv2d"]
        wq = step.params["weight_q"]
        assert len(accumulation_chunks(gemm_matrices(wq, None)[1])) == 2
        assert (step.output, "acc64") in engine.arena._scratch
        x = 10 * _calibration(8, shape=(16, 3, 4, 4))[0]
        np.testing.assert_array_equal(engine.run(x),
                                      run_reference(engine.plan, x))

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (3, 3)])
    def test_qmax_pool2d_matches_the_window_loop(self, k, s):
        from repro.nn import (Conv2d, GlobalAvgPool2d, Linear, MaxPool2d,
                              ReLU, Sequential)

        rng = np.random.default_rng(2)
        model = Sequential(
            Conv2d(3, 16, 3, padding=1, rng=rng), ReLU(),
            Conv2d(16, 16, 3, padding=1, rng=rng), ReLU(),
            MaxPool2d(k, stride=s), Conv2d(16, 8, 3, padding=1, rng=rng),
            ReLU(), GlobalAvgPool2d(), Linear(8, 3, rng=rng))
        engine = _int8_engine(model, (6, 3, 9, 11))
        (pool,) = [st for st in engine.plan.steps if st.op == "qmax_pool2d"]
        x = _calibration(6, shape=(6, 3, 9, 11))[0]
        seen = {}
        engine.run_observing(x[:5], {
            vid: (lambda v, vid=vid: seen.__setitem__(vid, np.array(v)))
            for vid in (pool.inputs[0], pool.output)})
        codes = seen[pool.inputs[0]]                 # (n, H, W, C) int8
        n, h, w, _ = codes.shape
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
        expected = None
        for i in range(k):
            for j in range(k):
                tap = codes[:, i:i + oh * s:s, j:j + ow * s:s]
                expected = (tap.copy() if expected is None
                            else np.maximum(expected, tap))
        np.testing.assert_array_equal(seen[pool.output], expected)
        np.testing.assert_array_equal(engine.run(x),
                                      run_reference(engine.plan, x))
