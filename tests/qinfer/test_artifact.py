"""Plan artifacts: round-trip fidelity, corruption detection, honest bytes."""

from pathlib import Path

import numpy as np
import pytest

from repro.infer import InferenceEngine, compile_model
from repro.infer.optimize import dequantize_weights
from repro.models import build_model
from repro.qinfer import (ArtifactCorruptError, load_plan, plan_size_bytes,
                          save_plan)
from repro.verify.invariants import perturb_batchnorm_stats


def write_v1(path: Path, to: Path) -> Path:
    """A copy of the artifact at ``path`` that claims format version 1."""
    raw = bytearray(path.read_bytes())
    raw[len(b"RPLAN")] = 1
    to.write_bytes(bytes(raw))
    return to


@pytest.fixture(scope="module")
def engines():
    x = np.random.default_rng(0).normal(size=(16, 3, 8, 8)).astype(
        np.float32)
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.25,
                        seed=0)
    perturb_batchnorm_stats(model, seed=0)
    model.eval()
    fp32 = compile_model(model, x, max_batch=16)
    int8 = compile_model(model, x, max_batch=16, quantize="int8")
    return fp32, int8, x


class TestRoundTrip:
    def test_quantized_plan_round_trips_bitwise(self, engines, tmp_path):
        _, int8, x = engines
        path = tmp_path / "plan.rplan"
        digest = save_plan(int8.plan, path)
        assert isinstance(digest, str) and len(digest) == 64
        restored = load_plan(path)
        engine = InferenceEngine(restored, max_batch=16)
        assert engine.quantized
        np.testing.assert_array_equal(engine.run(x), int8.run(x))

    def test_weight_codes_stay_int8_on_disk(self, engines, tmp_path):
        _, int8, _ = engines
        path = tmp_path / "plan.rplan"
        save_plan(int8.plan, path)
        restored = load_plan(path)
        codes = [s.params["weight_q"] for s in restored.steps
                 if "weight_q" in s.params]
        assert codes and all(c.dtype == np.int8 for c in codes)

    def test_loaded_plan_equals_fp32_over_dequantized_weights(
            self, engines, tmp_path):
        _, int8, x = engines
        path = tmp_path / "plan.rplan"
        save_plan(int8.plan, path)
        fp32 = InferenceEngine(dequantize_weights(load_plan(path)),
                               max_batch=16)
        np.testing.assert_array_equal(fp32.run(x), int8.run(x))


class TestSizeAccounting:
    def test_int8_artifact_is_at_least_3x_smaller(self, engines, tmp_path):
        fp32, int8, _ = engines
        a = tmp_path / "fp32.rplan"
        b = tmp_path / "int8.rplan"
        save_plan(fp32.plan, a)
        save_plan(int8.plan, b)
        ratio = a.stat().st_size / b.stat().st_size
        assert ratio >= 3.0, f"artifact only shrank {ratio:.2f}x"

    def test_plan_size_bytes_tracks_native_dtypes(self, engines):
        fp32, int8, _ = engines
        assert plan_size_bytes(int8.plan) * 3 < plan_size_bytes(fp32.plan)


class TestCorruption:
    def test_payload_bit_flip_detected(self, engines, tmp_path):
        _, int8, _ = engines
        path = tmp_path / "plan.rplan"
        save_plan(int8.plan, path)
        raw = bytearray(path.read_bytes())
        for offset in (len(raw) - 1, len(raw) // 2, len(raw) - len(raw) // 4):
            doomed = bytearray(raw)
            doomed[offset] ^= 0x01
            bad = tmp_path / "bad.rplan"
            bad.write_bytes(bytes(doomed))
            with pytest.raises(ArtifactCorruptError):
                load_plan(bad)

    def test_truncation_detected(self, engines, tmp_path):
        _, int8, _ = engines
        path = tmp_path / "plan.rplan"
        save_plan(int8.plan, path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.rplan"
        bad.write_bytes(raw[:len(raw) - 64])
        with pytest.raises(ArtifactCorruptError):
            load_plan(bad)

    def test_wrong_magic_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.rplan"
        bad.write_bytes(b"NOTAPLAN" + b"\x00" * 128)
        with pytest.raises(ArtifactCorruptError):
            load_plan(bad)
        with pytest.raises(ArtifactCorruptError):
            load_plan(tmp_path / "never-written.rplan")


class TestVersion:
    def test_v1_artifact_refused_by_version(self, engines, tmp_path):
        # Version 1 plans could hold int8-execution steps (qconv2d,
        # quantize, ...) that the runtime no longer has.
        _, int8, _ = engines
        path = tmp_path / "plan.rplan"
        save_plan(int8.plan, path)
        old = write_v1(path, tmp_path / "v1.rplan")
        with pytest.raises(ArtifactCorruptError,
                           match="unsupported artifact version 1"):
            load_plan(old)
