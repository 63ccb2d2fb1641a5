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
* ``worker.crash`` — a worker process killed mid-task must surface as a
  clean :class:`~repro.parallel.ParallelExecutionError` in the parent,
  and a fresh pool must work afterwards;
* ``worker.respawn`` — a scoring worker SIGKILLed mid-task under the
  *supervised* pool must be respawned and the importance report must come
  out bit-identical to the fault-free run, without degrading;
* ``worker.hang`` — a hung worker (and a SIGSTOPped one) must be caught
  by the task deadline / heartbeat staleness, killed and replaced;
* ``worker.degrade`` — a poison task that kills every host must drain the
  retry budget and finish *serially* (``degraded`` set, results intact);
* ``worker.bucket`` — a sharded-training worker SIGKILLed *between two
  gradient-bucket publications of one step* must be respawned, the
  supervised re-dispatch must recompute the in-flight step, and the
  final weights must come out bit-identical to the fault-free run (the
  seqlock words keep the half-published buckets invisible);
* ``shm.reaper`` — a shared-memory segment orphaned by a dead process
  must be reclaimed by the next startup sweep;
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
  answered bitwise with zero fallbacks (see :mod:`repro.serve.drills`);
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
    """One drill's outcome, shaped for the verify runner's report table."""

    name: str
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
    result = DrillResult("surgery.rollback")
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
    result = DrillResult("checkpoint.tamper")
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
    result = DrillResult("sentinel.recovery")
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
    result = DrillResult("loader.retry")
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


def _drill_worker_crash(seed: int) -> DrillResult:
    result = DrillResult("worker.crash")
    from ..parallel import (CRASH_TASK, EchoService, ParallelExecutionError,
                            WorkerPool)
    pool = WorkerPool(2, EchoService, ("drill",))
    try:
        try:
            pool.run_tasks(["before", CRASH_TASK, "after"])
        except ParallelExecutionError:
            pass
        else:
            result.fail("killed worker did not raise ParallelExecutionError")
    finally:
        pool.close()
    with WorkerPool(2, EchoService, ("drill",)) as fresh:
        echoed = fresh.run_tasks(["x", "y"])
        if echoed != [("drill", "x"), ("drill", "y")]:
            result.fail(f"fresh pool after the crash returned {echoed!r}")
    result.detail = "crash detected, fresh pool unaffected"
    return result


def _drill_worker_respawn(seed: int) -> DrillResult:
    result = DrillResult("worker.respawn")
    from ..core.importance import ImportanceEvaluator
    from ..parallel import SupervisionConfig
    from ..parallel.scoring import ScoringService
    from .chaos import worker_fault

    model = _tiny_model(seed)
    train, _ = _tiny_data(seed)
    cfg = ImportanceConfig(images_per_class=3)
    groups = [g.conv for g in model.prunable_groups()]

    with ImportanceEvaluator(model, train, 3, cfg, workers=2) as evaluator:
        clean = evaluator.evaluate(groups)

    # task_deadline below the default 120s: on an oversubscribed CI host a
    # respawned worker can miss its start-up deadline, and the drill must
    # not stall a full default deadline before supervision recovers.
    supervision = SupervisionConfig(poll_seconds=0.02, heartbeat_seconds=0.05,
                                    respawn_delay=0.01, respawn_jitter=0.0,
                                    task_deadline_seconds=30.0)
    events = []
    with worker_fault(ScoringService, mode="kill", at_call=0) as marker:
        with ImportanceEvaluator(model, train, 3, cfg, workers=2,
                                 supervision=supervision,
                                 on_worker_event=events.append) as evaluator:
            faulted = evaluator.evaluate(groups)
            degraded = evaluator.degraded
    if not marker.exists():
        result.fail("SIGKILL fault never fired in any worker")
    marker.unlink(missing_ok=True)
    if degraded:
        result.fail("pool degraded on a single transient kill")
    kinds = {e.kind for e in events}
    if "respawn" not in kinds:
        result.fail(f"no respawn event recorded (saw {sorted(kinds)})")
    for path in clean.total:
        if not np.array_equal(clean.total[path], faulted.total[path]):
            result.fail(f"scores differ at {path!r} after kill+respawn")
            break
    from ..parallel import reaper
    if reaper.live_segments():
        result.fail(f"orphaned shm segments: {reaper.live_segments()}")
    result.detail = "kill -9 mid-task healed, report bit-identical"
    return result


def _drill_worker_hang(seed: int) -> DrillResult:
    result = DrillResult("worker.hang")
    from ..parallel import EchoService, SupervisedWorkerPool, SupervisionConfig
    from .chaos import worker_fault

    for mode, knob in (("hang", dict(task_deadline_seconds=1.0)),
                       ("freeze", dict(stale_after_seconds=0.6,
                                       task_deadline_seconds=30.0))):
        supervision = SupervisionConfig(poll_seconds=0.02,
                                        heartbeat_seconds=0.05,
                                        respawn_delay=0.01,
                                        respawn_jitter=0.0, **knob)
        with worker_fault(EchoService, mode=mode) as marker:
            with SupervisedWorkerPool(2, EchoService, ("drill",),
                                      supervision=supervision) as pool:
                out = pool.run_tasks(["a", "b", "c", "d"])
                if pool.degraded:
                    result.fail(f"{mode}: degraded on one transient fault")
                kinds = {e.kind for e in pool.events}
        if not marker.exists():
            result.fail(f"{mode} fault never fired")
        marker.unlink(missing_ok=True)
        if out != [("drill", t) for t in ("a", "b", "c", "d")]:
            result.fail(f"{mode}: wrong results {out!r}")
        if "respawn" not in kinds:
            result.fail(f"{mode}: no respawn event (saw {sorted(kinds)})")
    result.detail = "hang + freeze both detected and healed"
    return result


def _drill_worker_degrade(seed: int) -> DrillResult:
    result = DrillResult("worker.degrade")
    from ..parallel import (CRASH_TASK, EchoService, SupervisedWorkerPool,
                            SupervisionConfig)
    supervision = SupervisionConfig(poll_seconds=0.02, heartbeat_seconds=0.05,
                                    respawn_delay=0.01, respawn_jitter=0.0,
                                    max_respawns=2, max_task_retries=1,
                                    task_deadline_seconds=30.0)
    with SupervisedWorkerPool(2, EchoService, ("drill",),
                              supervision=supervision) as pool:
        out = pool.run_tasks(["a", CRASH_TASK, "b", "c"])
        if not pool.degraded:
            result.fail("poison task did not degrade the pool")
        expected = [("drill", t) for t in ("a", CRASH_TASK, "b", "c")]
        if out != expected:
            result.fail(f"degraded run returned {out!r}")
        # A degraded pool must stay usable (serially) for the rest of
        # the run instead of failing every later batch.
        again = pool.run_tasks(["d", "e"])
        if again != [("drill", "d"), ("drill", "e")]:
            result.fail(f"post-degrade serial execution returned {again!r}")
    result.detail = "budget exhausted -> completed serially"
    return result


def _drill_worker_bucket(seed: int) -> DrillResult:
    result = DrillResult("worker.bucket")
    from ..parallel import SupervisionConfig
    from ..parallel.shard import TrainingService
    from .chaos import worker_fault

    train, _ = _tiny_data(seed)
    cfg = TrainingConfig(epochs=1, batch_size=16, lr=0.05, seed=seed,
                         workers=2, grad_bucket_kb=2)

    clean = _tiny_model(seed)
    trainer = Trainer(clean, train, None, cfg)
    try:
        trainer.train(epochs=1)
    finally:
        trainer.close()

    supervision = SupervisionConfig(poll_seconds=0.02, heartbeat_seconds=0.05,
                                    respawn_delay=0.01, respawn_jitter=0.0,
                                    task_deadline_seconds=30.0)
    events = []
    faulted = _tiny_model(seed)
    # The kill lands inside backward, after the second bucket of the step
    # was sealed and mid-publication of the third: the parent may already
    # have reduced the sealed buckets when the worker dies.
    with worker_fault(TrainingService, mode="kill", at_call=2,
                      method="_publish_bucket") as marker:
        trainer = Trainer(faulted, train, None, cfg,
                          supervision=supervision,
                          on_worker_event=events.append)
        try:
            trainer.train(epochs=1)
            degraded = trainer.degraded
        finally:
            trainer.close()
    if not marker.exists():
        result.fail("mid-publish SIGKILL never fired in any worker")
    marker.unlink(missing_ok=True)
    if degraded:
        result.fail("pool degraded on a single transient kill")
    kinds = {e.kind for e in events}
    if "respawn" not in kinds:
        result.fail(f"no respawn event recorded (saw {sorted(kinds)})")
    ref = clean.state_dict()
    for key, value in faulted.state_dict().items():
        if not np.array_equal(value, ref[key]):
            result.fail(f"weights differ at {key!r} after kill+respawn")
            break
    from ..parallel import reaper
    if reaper.live_segments():
        result.fail(f"orphaned shm segments: {reaper.live_segments()}")
    result.detail = "kill -9 mid-bucket-publish healed, weights bit-identical"
    return result


def _drill_shm_reaper(seed: int) -> DrillResult:
    result = DrillResult("shm.reaper")
    import multiprocessing as mp
    import os

    from multiprocessing import shared_memory

    from ..parallel import reaper
    from ..parallel.shm import SharedArrayBundle

    ctx = mp.get_context("fork")
    queue = ctx.Queue()

    def orphan(queue):
        from multiprocessing import resource_tracker
        bundle = SharedArrayBundle.create({"x": np.ones(8, np.float32)})
        # Model the fault the ledger exists for: kill -9 of the whole
        # process group takes the stdlib resource tracker down with the
        # owner, so nobody unlinks. (A lone SIGKILL is already covered by
        # the tracker; untracking here keeps it from racing the sweep.)
        resource_tracker.unregister("/" + bundle.spec.name, "shared_memory")
        queue.put(bundle.spec.name)
        queue.close()
        queue.join_thread()
        os._exit(0)

    child = ctx.Process(target=orphan, args=(queue,))
    child.start()
    name = queue.get(timeout=10)
    child.join(timeout=10)
    ledger = reaper.ledger_dir() / f"{child.pid}.json"
    if not ledger.exists():
        result.fail(f"orphan ledger {ledger} was not written")
    reaper.sweep_orphans()
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        pass                  # reclaimed, as required
    else:
        segment.close()
        result.fail(f"segment {name!r} survived the orphan sweep")
    if ledger.exists():
        result.fail(f"dead pid's ledger {ledger} survived the sweep")
    result.detail = "orphaned segment reclaimed at startup sweep"
    return result


def _drill_crash_resume(seed: int) -> DrillResult:
    result = DrillResult("crash.resume")

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

    ``only`` filters by substring of the drill name (e.g. ``"worker"``
    selects the whole worker-fault battery) — the CI supervision job uses
    it to run exactly the supervisor drills under a wall-clock guard.
    """
    # Serving drills live next to the serving layer; imported lazily so
    # this module stays importable without pulling repro.serve (and its
    # compiled-engine stack) until the battery actually runs.
    from ..qinfer.drills import QUANT_DRILLS
    from ..serve.drills import SERVE_DRILLS
    drills = [_drill_surgery_rollback, _drill_checkpoint_tamper,
              _drill_sentinel_recovery, _drill_loader_retry,
              _drill_worker_crash, _drill_worker_respawn,
              _drill_worker_hang, _drill_worker_degrade,
              _drill_worker_bucket,
              _drill_shm_reaper, *QUANT_DRILLS, *SERVE_DRILLS]
    if not quick:
        drills.append(_drill_crash_resume)
    if only:
        drills = [d for d in drills
                  if only in d.__name__.replace("_drill_", "")
                  .replace("_", ".")]
    results = []
    for drill in drills:
        start = time.perf_counter()
        try:
            outcome = drill(seed)
        except Exception as exc:  # noqa: BLE001 - a drill crash is a failure
            outcome = DrillResult(drill.__name__.replace("_drill_", "")
                                  .replace("_", "."))
            outcome.fail(f"drill crashed: {type(exc).__name__}: {exc}")
        outcome.seconds = time.perf_counter() - start
        results.append(outcome)
    return results
