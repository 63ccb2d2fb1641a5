"""Resilience subsystem: journaled runs, rollback, sentinels, chaos.

The paper's framework (Sec. III-D, Fig. 5) is an hours-long iterative
prune/fine-tune loop whose termination rule already demands restoring
"the last recoverable model". This package makes the whole loop survive
the failures that show up at that time scale:

* :mod:`repro.resilience.journal` — append-only, checksummed run journal
  plus the run-directory layout used by
  :meth:`~repro.core.ClassAwarePruningFramework.run` to make interrupted
  runs resumable (``resume_from=...`` / ``repro run --resume``);
* :mod:`repro.resilience.transaction` — structural model snapshots and the
  ``transactional`` guard that makes filter surgery all-or-nothing;
* :mod:`repro.resilience.sentinels` — per-step numerical-health checks
  (NaN/Inf loss, NaN gradients, loss explosion) with rewind + learning-rate
  backoff inside the :class:`~repro.core.Trainer`;
* :mod:`repro.resilience.retry` — deterministic backoff policies
  (:class:`RetryPolicy`, used by the replica fleet to pace respawns) and the bounded-retry dataset wrapper for flaky storage;
* :mod:`repro.resilience.chaos` — deterministic fault injection used by the
  tests and the ``python -m repro.verify`` resilience drills to prove every
  recovery path actually recovers.

:mod:`repro.resilience.drills` (the verify-runner battery) is imported
lazily by the runner to keep this package free of ``repro.core`` imports.
"""

from .chaos import (ChaosError, FlakyDataset, SimulatedCrash,
                    corrupt_checkpoint, plant_numerical_fault,
                    sabotage_method)
from .journal import (JournalCorruptError, RunDirectory, RunJournal,
                      decode_payload, encode_payload)
from .retry import (DataUnavailableError, RetryBudgetExhausted, RetryPolicy,
                    RetryingDataset)
from .sentinels import (HealthMonitor, NumericalHealthError, SentinelConfig,
                        SentinelEvent)
from .transaction import ModelSnapshot, transactional

__all__ = [
    "RunJournal", "RunDirectory", "JournalCorruptError",
    "encode_payload", "decode_payload",
    "ModelSnapshot", "transactional",
    "SentinelConfig", "SentinelEvent", "HealthMonitor",
    "NumericalHealthError",
    "RetryingDataset", "DataUnavailableError",
    "RetryPolicy", "RetryBudgetExhausted",
    "ChaosError", "SimulatedCrash", "FlakyDataset",
    "plant_numerical_fault", "sabotage_method", "corrupt_checkpoint",
]
