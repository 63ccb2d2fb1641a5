"""Quantized artifacts through the serving deploy gate."""

import numpy as np
import pytest

from repro.infer import compile_model
from repro.models import build_model
from repro.qinfer import save_plan
from repro.serve.manifest import restore_registry
from repro.serve.registry import ModelRegistry, SwapValidationError
from repro.verify.invariants import perturb_batchnorm_stats

from .test_artifact import write_v1


@pytest.fixture()
def setup(tmp_path):
    rng = np.random.default_rng(0)
    loader = [rng.normal(size=(16, 3, 8, 8)).astype(np.float32)]
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.25,
                        seed=0)
    perturb_batchnorm_stats(model, seed=0)
    model.eval()
    engine = compile_model(model, loader[0], max_batch=16, quantize="int8")
    artifact = tmp_path / "model.rplan"
    save_plan(engine.plan, artifact)
    return model, loader, engine, artifact, tmp_path


class TestQuantizedModelDeploy:
    def test_deploy_reports_gate_metrics(self, setup):
        model, loader, _, _, _ = setup
        with ModelRegistry(max_batch=16) as registry:
            report = registry.deploy("m", "v1", model=model,
                                     quantize="int8")
            assert report.quantized
            assert report.top1_agreement >= 0.9

    def test_low_agreement_gate_rejects(self, setup):
        model, loader, _, _, _ = setup
        with ModelRegistry(max_batch=16) as registry:
            with pytest.raises(SwapValidationError):
                registry.deploy("m", "v1", model=model, quantize="int8",
                                min_top1_agreement=1.01)

    def test_quantized_deploy_journals_an_artifact(self, setup, tmp_path):
        model, loader, _, _, _ = setup
        manifest_dir = tmp_path / "manifest"
        with ModelRegistry(max_batch=16,
                           manifest_dir=manifest_dir) as registry:
            registry.deploy("m", "v1", model=model, quantize="int8")
            expected = registry.resolve("m")[1].engine.run(loader[0][:4])
        # Restart: the journaled plan artifact restores the same engine
        # from its codes, without a recompile.
        with ModelRegistry(max_batch=16,
                           manifest_dir=manifest_dir) as restored:
            report = restore_registry(restored, manifest_dir)
            assert [e["name"] for e in report.restored] == ["m"]
            assert report.restored[0]["checkpoint"].endswith(".rplan")
            out = restored.resolve("m")[1].engine.run(loader[0][:4])
            np.testing.assert_array_equal(out, expected)


class TestArtifactDeploy:
    def test_artifact_swap_over_float_line(self, setup):
        model, loader, engine, artifact, _ = setup
        with ModelRegistry(max_batch=16) as registry:
            registry.deploy("m", "v1", model=model, input_shape=(3, 8, 8))
            report = registry.deploy("m", "v2", artifact=artifact)
            assert report.quantized
            assert report.swapped_from == "v1"
            assert report.top1_agreement >= 0.9
            out = registry.resolve("m")[1].engine.run(loader[0][:4])
            np.testing.assert_array_equal(out, engine.run(loader[0][:4]))

    def test_corrupted_artifact_rejected_old_version_serves(self, setup,
                                                            tmp_path):
        model, loader, _, artifact, _ = setup
        raw = bytearray(artifact.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        doomed = tmp_path / "doomed.rplan"
        doomed.write_bytes(bytes(raw))
        with ModelRegistry(max_batch=16) as registry:
            registry.deploy("m", "v1", artifact=artifact)
            before = registry.resolve("m")[1].engine.run(loader[0][:4])
            with pytest.raises(SwapValidationError):
                registry.deploy("m", "v2", artifact=doomed)
            assert registry.models()["m"]["active"] == "m@v1"
            after = registry.resolve("m")[1].engine.run(loader[0][:4])
            np.testing.assert_array_equal(before, after)

    def test_artifact_deploy_has_no_eager_fallback(self, setup):
        _, loader, _, artifact, _ = setup
        with ModelRegistry(max_batch=16) as registry:
            registry.deploy("m", "v1", artifact=artifact)
            line, version = registry.resolve("m")
            assert version.model is None
            with pytest.raises(RuntimeError):
                registry.eager_infer(line, version, loader[0][0])

    def test_exactly_one_source_required(self, setup):
        model, _, _, artifact, _ = setup
        with ModelRegistry(max_batch=16) as registry:
            with pytest.raises(ValueError):
                registry.deploy("m", "v1", model=model, artifact=artifact)
            with pytest.raises(ValueError):
                registry.deploy("m", "v1")


class TestOldArtifactVersion:
    def test_v1_artifact_deploy_rejected_old_version_serves(self, setup,
                                                            tmp_path):
        model, loader, _, artifact, _ = setup
        old = write_v1(artifact, tmp_path / "v1.rplan")
        with ModelRegistry(max_batch=16) as registry:
            registry.deploy("m", "v1", artifact=artifact)
            with pytest.raises(SwapValidationError,
                               match="unsupported artifact version 1"):
                registry.deploy("m", "v2", artifact=old)
            assert registry.models()["m"]["active"] == "m@v1"

    def test_restore_skips_and_reports_a_v1_artifact(self, setup, tmp_path):
        _, loader, engine, artifact, _ = setup
        other = tmp_path / "other.rplan"
        other.write_bytes(artifact.read_bytes())
        manifest_dir = tmp_path / "manifest"
        with ModelRegistry(max_batch=16,
                           manifest_dir=manifest_dir) as registry:
            registry.deploy("good", "v1", artifact=artifact)
            registry.deploy("old", "v1", artifact=other)
        # The journaled artifact of "old" turns out to be a version-1
        # file, as if written before the format changed.
        write_v1(other, other)
        with ModelRegistry(max_batch=16) as restored:
            report = restore_registry(restored, manifest_dir)
            assert [e["name"] for e in report.restored] == ["good"]
            (skipped,) = report.skipped
            assert skipped["name"] == "old"
            assert "unsupported artifact version 1" in skipped["reason"]
            out = restored.resolve("good")[1].engine.run(loader[0][:4])
            np.testing.assert_array_equal(out, engine.run(loader[0][:4]))
