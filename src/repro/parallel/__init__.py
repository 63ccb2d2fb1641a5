"""Multi-process execution layer: class-parallel scoring, sharded training.

Three pillars, all exposed through knobs on the existing APIs
(``ImportanceEvaluator(workers=N)``, ``TrainingConfig(workers=N)``,
``ClassAwarePruningFramework.run(workers=N)``, ``repro run --workers N``):

* :mod:`~repro.parallel.scoring` — the serial path's fused class scoring
  fanned across a persistent worker pool, bit-identical to serial;
* :mod:`~repro.parallel.shard` — data-parallel fine-tuning: batch shards
  are evaluated in workers and their gradients all-reduced into the
  parent's SGD step;
* :mod:`~repro.parallel.pool` / :mod:`~repro.parallel.shm` — the process
  pool and shared-memory ndarray transport underneath both;
* :mod:`~repro.parallel.supervisor` / :mod:`~repro.parallel.reaper` — the
  self-healing layer: heartbeats, watchdog deadlines, worker respawn with
  deterministic retry, graceful serial fallback, and the shared-memory
  ledger that reclaims segments after crashes (including SIGKILL).

See ``docs/performance.md`` for the architecture and the determinism
contract, and ``docs/supervision.md`` for the fault model and tuning
knobs of the supervision layer.
"""

from .bucket import BucketPlan
from .errors import ParallelExecutionError, TaskFailedError
from .pool import CRASH_TASK, EchoService, WorkerPool, resolve_processes
from .scoring import ScoringService, ScoringSession
from .shm import SharedArrayBundle, ShmSpec
from .supervisor import (HANG_TASK, STALL_HEARTBEAT_TASK,
                         SupervisedWorkerPool, SupervisionConfig,
                         WorkerEvent)

__all__ = [
    "ParallelExecutionError",
    "TaskFailedError",
    "WorkerPool",
    "SupervisedWorkerPool",
    "SupervisionConfig",
    "WorkerEvent",
    "EchoService",
    "CRASH_TASK",
    "HANG_TASK",
    "STALL_HEARTBEAT_TASK",
    "resolve_processes",
    "SharedArrayBundle",
    "ShmSpec",
    "ScoringService",
    "ScoringSession",
    "BucketPlan",
    "ShardedTrainingSession",
]


def __getattr__(name):
    # shard.py imports trainer-adjacent modules; load it lazily so
    # importing repro.parallel stays cheap for scoring-only users.
    if name == "ShardedTrainingSession":
        from .shard import ShardedTrainingSession
        return ShardedTrainingSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
