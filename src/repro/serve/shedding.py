"""Admission control: reject early, explicitly, and in O(1).

An overloaded service has exactly two honest options: make *everyone*
slower (unbounded queueing — latency grows without bound and eventually
every response misses its deadline) or tell *some* callers "not now" in
microseconds and keep the rest inside their budget. This module is the
second option.

:class:`AdmissionController` gates every request before it touches the
batching queue:

* **depth bound** — at most ``max_pending`` admitted-but-unfinished
  requests per model; beyond that the request is rejected with reason
  ``"queue-full"``. This caps memory and bounds the queueing delay any
  admitted request can experience.
* **SLO budget** — a rolling reservoir of recent completion latencies;
  once its p99 exceeds ``p99_budget_ms`` new requests are rejected with
  reason ``"slo"`` *unless* the queue is nearly empty
  (``PROBE_PENDING``), so a trickle of probe traffic keeps flowing,
  refreshes the reservoir, and lets the controller discover recovery
  instead of shedding forever on stale data.
* **deadline feasibility** — a request that carries a remaining deadline
  budget (``remaining_ms``) is rejected with reason ``"deadline"`` when
  the budget is already spent or smaller than the recent median service
  time: the engine cannot possibly answer in time, so admitting it would
  only burn compute on a response nobody will read.

Decisions are pure functions of recorded state — no clock, no threads —
so tests assert exact admit/reject sequences.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .metrics import LatencyReservoir

__all__ = ["SheddingConfig", "AdmissionController"]

PROBE_PENDING = 2               # SLO gate lifts below this depth
RESERVOIR = 256                 # completion latencies kept for p99


@dataclass(frozen=True)
class SheddingConfig:
    """Bounds enforced at admission time."""

    max_pending: int = 64          # admitted-but-unfinished requests
    p99_budget_ms: float | None = 200.0   # None disables the SLO gate

    def __post_init__(self):
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.p99_budget_ms is not None and self.p99_budget_ms <= 0:
            raise ValueError("p99_budget_ms must be positive")


class AdmissionController:
    """Per-model gatekeeper; thread-safe, O(1) per decision."""

    def __init__(self, config: SheddingConfig | None = None):
        self.config = config or SheddingConfig()
        self._lock = threading.Lock()
        self._pending = 0
        self._latencies = LatencyReservoir(RESERVOIR)
        self.admitted = 0
        self.rejected: dict[str, int] = {}

    @property
    def pending(self) -> int:
        return self._pending

    def try_admit(self, *, remaining_ms: float | None = None
                  ) -> tuple[bool, str | None]:
        """Admit or name the reason not to. Admission bumps ``pending``.

        ``remaining_ms`` is the request's remaining deadline budget;
        requests that cannot possibly be answered inside it (budget
        spent, or below the recent median service time) are shed with
        reason ``"deadline"`` before they take a queue slot.
        """
        cfg = self.config
        with self._lock:
            if remaining_ms is not None:
                floor = self._latencies.percentile(50.0)
                if remaining_ms <= 0 or (floor is not None
                                         and remaining_ms < floor):
                    self.rejected["deadline"] = \
                        self.rejected.get("deadline", 0) + 1
                    return False, "deadline"
            if self._pending >= cfg.max_pending:
                self.rejected["queue-full"] = \
                    self.rejected.get("queue-full", 0) + 1
                return False, "queue-full"
            if (cfg.p99_budget_ms is not None
                    and self._pending >= PROBE_PENDING):
                p99 = self._latencies.percentile(99.0)
                if p99 is not None and p99 > cfg.p99_budget_ms:
                    self.rejected["slo"] = self.rejected.get("slo", 0) + 1
                    return False, "slo"
            self._pending += 1
            self.admitted += 1
            return True, None

    def on_complete(self, latency_ms: float) -> None:
        """One admitted request finished (success or failure)."""
        with self._lock:
            self._pending = max(self._pending - 1, 0)
            self._latencies.record(latency_ms)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pending": self._pending,
                "max_pending": self.config.max_pending,
                "admitted": self.admitted,
                "rejected": dict(self.rejected),
                "p99_budget_ms": self.config.p99_budget_ms,
                "recent_p99_ms": self._latencies.percentile(99.0),
            }
