"""Resilience drills for ``python -m repro.verify``.

Each drill plants one fault from :mod:`repro.resilience.chaos` and asserts
the matching recovery path actually recovers:

* ``surgery.rollback`` — a consumer raises mid-surgery; the model must come
  back bit-identical and still run forward;
* ``checkpoint.tamper`` — bit-flipped and truncated checkpoints must load
  as :class:`~repro.io.CheckpointCorruptError`, never as silent garbage;
* ``sentinel.recovery`` — a transient NaN activation during training must
  be rewound, leaving finite weights and a recorded sentinel event;
* ``loader.retry`` — a flaky dataset behind the bounded-retry wrapper must
  feed a full epoch;
* ``quant.deploy`` / ``quant.corrupt`` — the int8 deployable: a
  quantized plan artifact must swap in through the serve validation
  gate and come back bit-identical from a warm restart, and an artifact
  with a corrupted scale must be rejected while the old version keeps
  serving (see :mod:`repro.qinfer.drills`);
* ``serve.shed`` / ``serve.swap`` / ``serve.drain`` / ``serve.restart``
  — the serving layer under 2× overload must shed explicitly and fast
  without dropping accepted requests; a mid-traffic checkpoint hot-swap
  must complete with zero drops; a graceful drain must answer every
  accepted request and reject new ones explicitly; a warm restart
  from the deploy manifest must re-validate every version, skipping
  corrupted ones with a report; and ``serve.frame`` sends truncated,
  oversize and wrong-shape frames amid good traffic, which must still be
  answered bitwise with zero fallbacks;
* ``serve.replica.kill`` / ``serve.replica.hang`` /
  ``serve.replica.rolling`` — the replica fleet under SIGKILL, a wedged
  replica and a rolling deploy (see :mod:`repro.serve.drills`);
* ``crash.resume`` (skipped with ``--quick``) — a framework run killed
  after its first committed iteration must resume to a bit-identical final
  state.

This module imports ``repro.core`` and is therefore *not* re-exported by
the :mod:`repro.resilience` package ``__init__`` (which core imports); the
verify runner pulls it in lazily.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import (ClassAwarePruningFramework, FrameworkConfig,
                    ImportanceConfig, Trainer, TrainingConfig)
from ..core.surgery import prune_groups
from ..data import DataLoader, make_cifar_like
from ..io import CheckpointCorruptError, load_model, save_model
from ..models import build_model
from ..tensor import Tensor
from .chaos import (ChaosError, FlakyDataset, SimulatedCrash,
                    corrupt_checkpoint, plant_numerical_fault,
                    sabotage_method)
from .retry import RetryingDataset
from .sentinels import SentinelConfig
from .transaction import ModelSnapshot

__all__ = ["DrillResult", "run_drills"]


@dataclass
class DrillResult:
    """One drill's outcome, shaped for the verify runner's report table.

    Drills leave ``name`` empty; :func:`run_drills` stamps the drill's
    table name on every outcome, crashed or not.
    """

    name: str = ""
    passed: bool = True
    seconds: float = 0.0
    detail: str = ""
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)


def _tiny_model(seed: int):
    return build_model("vgg11", num_classes=3, image_size=8, width=0.25,
                       seed=seed)


def _tiny_data(seed: int):
    return make_cifar_like(num_classes=3, image_size=8,
                           samples_per_class=12, seed=seed)


# ----------------------------------------------------------------------
def _drill_surgery_rollback(seed: int) -> DrillResult:
    result = DrillResult()
    model = _tiny_model(seed)
    groups = model.prunable_groups()
    reference = ModelSnapshot(model)
    probe = Tensor(np.random.default_rng(seed).normal(
        size=(2, 3, 8, 8)).astype(np.float32))
    model.eval()
    before = model(probe).data.copy()

    group = groups[0]
    keep = np.arange(model.get_module(group.conv).out_channels - 1)
    victim = model.get_module(group.consumers[0].path)
    method = ("select_input_channels")
    raised = False
    try:
        with sabotage_method(victim, method, after_calls=0):
            prune_groups(model, groups, {group.name: keep})
    except ChaosError:
        raised = True
    if not raised:
        result.fail("injected surgery fault did not raise")
    if not reference.matches(model):
        result.fail("model state changed after rolled-back surgery")
    after = model(probe).data
    if not np.array_equal(before, after):
        result.fail("forward pass differs after rolled-back surgery")
    result.detail = "mid-surgery fault rolled back"
    return result


def _drill_checkpoint_tamper(seed: int) -> DrillResult:
    result = DrillResult()
    model = _tiny_model(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("flip", "truncate"):
            path = Path(tmp) / f"{mode}.npz"
            save_model(model, path)
            load_model(path)  # must be valid before the tampering
            corrupt_checkpoint(path, mode=mode, seed=seed)
            try:
                load_model(path)
            except CheckpointCorruptError:
                continue
            except Exception as exc:  # noqa: BLE001 - report wrong type
                result.fail(f"{mode}: raised {type(exc).__name__}, expected "
                            "CheckpointCorruptError")
            else:
                result.fail(f"{mode}: corrupt checkpoint loaded silently")
    result.detail = "flip+truncate both detected"
    return result


def _drill_sentinel_recovery(seed: int) -> DrillResult:
    result = DrillResult()
    model = _tiny_model(seed)
    train, test = _tiny_data(seed)
    trainer = Trainer(model, train, None,
                      TrainingConfig(epochs=2, batch_size=16, lr=0.05,
                                     seed=seed),
                      sentinel=SentinelConfig(max_retries=3))
    handle = plant_numerical_fault(model.get_module("features.0"),
                                   at_call=1, mode="activation")
    try:
        history = trainer.train(epochs=2)
    finally:
        handle.remove()
    if not history.sentinel_events:
        result.fail("planted NaN produced no sentinel event")
    elif history.sentinel_events[0].action != "rewind":
        result.fail(f"expected rewind, got "
                    f"{history.sentinel_events[0].action!r}")
    if len(history.epochs) != 2:
        result.fail(f"training did not complete: {len(history.epochs)}/2 "
                    "epochs")
    for name, param in model.named_parameters():
        if not np.all(np.isfinite(param.data)):
            result.fail(f"non-finite weights in {name!r} after recovery")
            break
    result.detail = "NaN rewound, run completed"
    return result


def _drill_loader_retry(seed: int) -> DrillResult:
    result = DrillResult()
    train, _ = _tiny_data(seed)
    flaky = RetryingDataset(FlakyDataset(train, failures=2), max_retries=2)
    loader = DataLoader(flaky, batch_size=16, shuffle=True, seed=seed)
    total = sum(len(labels) for _, labels in loader)
    if total != len(train):
        result.fail(f"epoch yielded {total}/{len(train)} samples")
    if flaky.retried == 0:
        result.fail("retry wrapper never retried — fault not exercised")
    result.detail = f"{flaky.retried} transient faults absorbed"
    return result


def _drill_crash_resume(seed: int) -> DrillResult:
    result = DrillResult()

    def framework(run_dir=None):
        model = _tiny_model(seed)
        train, test = _tiny_data(seed)
        return ClassAwarePruningFramework(
            model, train, test, num_classes=3, input_shape=(3, 8, 8),
            config=FrameworkConfig(
                score_threshold=1.0, max_fraction_per_iteration=0.2,
                finetune_epochs=1, accuracy_drop_tolerance=0.5,
                max_iterations=2,
                importance=ImportanceConfig(images_per_class=3)),
            training=TrainingConfig(epochs=1, batch_size=32, lr=0.05,
                                    seed=seed))

    with tempfile.TemporaryDirectory() as tmp:
        straight = framework()
        reference = straight.run(run_dir=Path(tmp) / "reference")

        crashed = framework()
        run_dir = Path(tmp) / "crashed"

        def crash(iteration: int):
            raise SimulatedCrash(f"killed after iteration {iteration}")

        try:
            crashed.run(run_dir=run_dir, post_iteration=crash)
        except SimulatedCrash:
            pass
        else:
            result.fail("simulated crash did not propagate")
            return result

        resumed_fw = framework()
        resumed = resumed_fw.run(resume_from=run_dir)

        if resumed.stop_reason != reference.stop_reason:
            result.fail(f"stop_reason {resumed.stop_reason!r} != "
                        f"{reference.stop_reason!r}")
        if len(resumed.iterations) != len(reference.iterations):
            result.fail(f"{len(resumed.iterations)} iterations != "
                        f"{len(reference.iterations)}")
        ref_state = reference.model.state_dict()
        res_state = resumed.model.state_dict()
        if sorted(ref_state) != sorted(res_state):
            result.fail("resumed model has different parameter names")
        else:
            for key in ref_state:
                if not np.array_equal(ref_state[key], res_state[key]):
                    result.fail(f"weights differ at {key!r} after resume")
                    break
    result.detail = "kill -> resume bit-identical"
    return result


# ----------------------------------------------------------------------
def run_drills(seed: int = 0, quick: bool = False,
               only: str | None = None) -> list[DrillResult]:
    """Run the battery; ``quick`` skips the (slower) crash-resume drill.

    ``only`` filters by substring of the drill name (e.g. ``"replica"``
    selects the three ``serve.replica.*`` drills) — the CI serve job uses
    it to run exactly the serving drills under a wall-clock guard.
    """
    # Serving and int8 drills live next to their layers; imported lazily
    # so this module stays importable without pulling repro.serve (and its
    # compiled-engine stack) until the battery actually runs.
    from ..qinfer import drills as quant
    from ..serve import drills as serve
    # (name, drill, runs under quick): the name is what the report shows
    # and what ``only`` matches.
    table = [
        ("surgery.rollback", _drill_surgery_rollback, True),
        ("checkpoint.tamper", _drill_checkpoint_tamper, True),
        ("sentinel.recovery", _drill_sentinel_recovery, True),
        ("loader.retry", _drill_loader_retry, True),
        ("quant.deploy", quant._drill_quant_deploy, True),
        ("quant.corrupt", quant._drill_quant_corrupt, True),
        ("serve.shed", serve._drill_serve_shed, True),
        ("serve.swap", serve._drill_serve_swap, True),
        ("serve.drain", serve._drill_serve_drain, True),
        ("serve.restart", serve._drill_serve_restart, True),
        ("serve.frame", serve._drill_serve_frame, True),
        ("serve.replica.kill", serve._drill_serve_replica_kill, True),
        ("serve.replica.hang", serve._drill_serve_replica_hang, True),
        ("serve.replica.rolling", serve._drill_serve_replica_rolling, True),
        ("crash.resume", _drill_crash_resume, False),
    ]
    results = []
    for name, drill, in_quick in table:
        if (quick and not in_quick) or (only and only not in name):
            continue
        start = time.perf_counter()
        try:
            outcome = drill(seed)
        except Exception as exc:  # noqa: BLE001 - a drill crash is a failure
            outcome = DrillResult()
            outcome.fail(f"drill crashed: {type(exc).__name__}: {exc}")
        outcome.name = name
        outcome.seconds = time.perf_counter() - start
        results.append(outcome)
    return results
