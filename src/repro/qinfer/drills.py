"""Quantization drills for ``python -m repro.verify --drills quant``.

Two drills extend the resilience battery to the int8 deployable:

* ``quant.deploy`` — the full fused prune+quantize deploy path: a pruned
  model is compiled with int8 weight codes, serialized with
  :func:`repro.qinfer.save_plan`, and deployed *as an artifact* over an
  active float version through the serve swap gate (the top-1 agreement
  gate against the live engine). The registry must land on the quantized
  version and serve the compiled engine's outputs bitwise, and a warm
  restart from the manifest must restore the identical int8 engine;

* ``quant.corrupt`` — an artifact whose bytes rot on disk (the flip lands
  in the serialized scale/weight payload) must be rejected at deploy time
  with :class:`~repro.serve.registry.SwapValidationError` naming the
  corruption, while the previously active version keeps serving. A
  tampered scale is the quantized analogue of a bit-flipped checkpoint:
  the model would still *run*, just wrongly — only the artifact digest
  stands between that and production.

Like the serve drills, these guard recovery semantics with tiny models
and finish in a few seconds.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..infer import compile_model
from ..models import build_model
from ..resilience.drills import DrillResult
from ..verify.invariants import perturb_batchnorm_stats
from .artifact import load_plan, save_plan


def _pruned_model(seed: int):
    from ..infer.bench import _prune_model

    model = build_model("vgg11", num_classes=3, image_size=8, width=0.25,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    _prune_model(model, seed)
    model.eval()
    return model


def _probe_batch(seed: int):
    rng = np.random.default_rng(seed + 13)
    return rng.normal(size=(16, 3, 8, 8)).astype(np.float32)


def _drill_quant_deploy(seed: int):
    from ..serve.manifest import restore_registry
    from ..serve.registry import ModelRegistry

    result = DrillResult()
    model = _pruned_model(seed)
    batch = _probe_batch(seed)
    engine = compile_model(model, batch, max_batch=16, quantize="int8")
    if not engine.quantized:
        result.fail("compile_model(quantize='int8') produced a float engine")

    probe = batch[:8]
    expected = engine.run(probe)
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "pruned-int8.rplan"
        save_plan(engine.plan, artifact)

        manifest_dir = Path(tmp) / "manifest"
        with ModelRegistry(max_batch=16,
                           manifest_dir=manifest_dir) as registry:
            registry.deploy("m", "v1", model=model, input_shape=(3, 8, 8),
                            seed=seed)
            report = registry.deploy("m", "v2", artifact=artifact)
            if not report.quantized:
                result.fail("artifact deploy did not report quantized=True")
            if report.top1_agreement is None or report.top1_agreement < 0.9:
                result.fail(f"top-1 agreement gate not exercised: "
                            f"{report.top1_agreement}")
            if registry.models()["m"]["active"] != "m@v2":
                result.fail("registry did not land on the int8 version")
            served = registry.resolve("m")[1].engine.run(probe)
            if not np.array_equal(served, expected):
                result.fail("served outputs differ from the compiled engine")

        # The process dies; the manifest must bring back the *same*
        # int8 engine, bit for bit.
        with ModelRegistry(max_batch=16,
                           manifest_dir=manifest_dir) as restored:
            restore_report = restore_registry(restored, manifest_dir)
            if [e["name"] for e in restore_report.restored] != ["m"]:
                result.fail(f"warm restart did not restore the quantized "
                            f"deploy: {restore_report.summary()}")
            else:
                out = restored.resolve("m")[1].engine.run(probe)
                if not np.array_equal(out, expected):
                    result.fail("restored engine outputs differ bitwise")
                if not restored.models()["m"]["quantized"]:
                    result.fail("restored version lost its quantized flag")
    result.detail = "int8 artifact swapped in, warm restart bit-identical"
    return result


def _drill_quant_corrupt(seed: int):
    from ..serve.registry import ModelRegistry, SwapValidationError

    result = DrillResult()
    model = _pruned_model(seed)
    batch = _probe_batch(seed)
    engine = compile_model(model, batch, max_batch=16, quantize="int8")
    probe = batch[:8]

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "good.rplan"
        save_plan(engine.plan, artifact)
        # Flip a byte deep in the array payload — scales and weight codes
        # live there; the manifest (and thus the structure) stays valid.
        raw = bytearray(artifact.read_bytes())
        raw[len(raw) - len(raw) // 4] ^= 0xFF
        doomed = Path(tmp) / "doomed.rplan"
        doomed.write_bytes(bytes(raw))

        with ModelRegistry(max_batch=16) as registry:
            registry.deploy("m", "v1", artifact=artifact)
            before = registry.resolve("m")[1].engine.run(probe)
            try:
                registry.deploy("m", "v2", artifact=doomed)
                result.fail("corrupted-scale artifact was accepted")
            except SwapValidationError as exc:
                if "artifact" not in str(exc):
                    result.fail(f"rejection does not name the artifact: "
                                f"{exc}")
            if registry.models()["m"]["active"] != "m@v1":
                result.fail("active version changed after a rejected swap")
            after = registry.resolve("m")[1].engine.run(probe)
            if not np.array_equal(before, after):
                result.fail("surviving version's outputs changed after the "
                            "rejected swap")

        # Belt and braces: the loader itself must refuse the bytes too.
        from .artifact import ArtifactCorruptError
        try:
            load_plan(doomed)
            result.fail("load_plan accepted the corrupted artifact")
        except ArtifactCorruptError:
            pass
    result.detail = "tampered artifact rejected, old version kept serving"
    return result
