"""Serving metrics: latency reservoirs, counters, the ``stats`` payload.

Everything a load test or an operator needs to judge the service —
request counts by outcome, queue depth, batching behaviour, and latency
percentiles — is collected here and serialised by :meth:`ServerMetrics.
snapshot` into the JSON the server's ``stats`` verb returns.

Percentiles use a bounded ring of the most recent samples (a reservoir of
the *last N*, not a random sample): serving cares about "how slow are we
right now", and a ring is O(1) to feed from the hot path. The percentile
itself sorts a copy on demand — reads are rare, writes are not.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = ["LatencyReservoir", "ServerMetrics", "sum_counters"]


class LatencyReservoir:
    """Ring buffer of the most recent latency samples (milliseconds)."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring: list[float] = []
        self._next = 0
        self.count = 0                      # lifetime samples

    def record(self, value_ms: float) -> None:
        value_ms = float(value_ms)
        if len(self._ring) < self.capacity:
            self._ring.append(value_ms)
        else:
            self._ring[self._next] = value_ms
            self._next = (self._next + 1) % self.capacity
        self.count += 1

    def samples(self) -> list[float]:
        """Retained window, oldest first (at most ``capacity`` values)."""
        if len(self._ring) < self.capacity:
            return list(self._ring)
        return self._ring[self._next:] + self._ring[:self._next]

    @classmethod
    def from_samples(cls, values: Iterable[float],
                     lifetime: int | None = None,
                     capacity: int | None = None) -> "LatencyReservoir":
        """Rebuild a reservoir from a wire-serialised sample window.

        ``lifetime`` restores the original lifetime ``count`` (the window
        only retains the most recent samples); defaults to the window
        length.
        """
        values = [float(v) for v in values]
        out = cls(capacity if capacity is not None else max(len(values), 1))
        for value in values:
            out.record(value)
        if lifetime is not None:
            out.count = max(int(lifetime), out.count)
        return out

    @classmethod
    def merged(cls, reservoirs: Iterable["LatencyReservoir"],
               capacity: int | None = None) -> "LatencyReservoir":
        """Fleet-wide union of several reservoirs.

        The merged window holds every retained sample from every input
        (capacity defaults to the sum of input capacities) and the
        lifetime ``count`` is the sum of lifetimes, so percentiles and
        counts answer "how is the fleet doing" rather than any single
        replica.
        """
        pool = list(reservoirs)
        if capacity is None:
            capacity = max(sum(r.capacity for r in pool), 1)
        out = cls(capacity)
        for reservoir in pool:
            for value in reservoir.samples():
                out.record(value)
        out.count = sum(r.count for r in pool)
        return out

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile of the retained window; None if empty."""
        if not self._ring:
            return None
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self._ring)
        rank = max(int(round(p / 100.0 * len(ordered) + 0.5)) - 1, 0)
        return ordered[min(rank, len(ordered) - 1)]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "p50_ms": self.percentile(50.0),
            "p99_ms": self.percentile(99.0),
            "max_ms": max(self._ring) if self._ring else None,
        }


def sum_counters(counter_maps: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Element-wise sum of counter dicts (missing keys count as zero)."""
    total: dict[str, int] = {}
    for counters in counter_maps:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + int(value)
    return total


class ServerMetrics:
    """Thread-safe roll-up of one server's request stream."""

    def __init__(self, reservoir: int = 1024):
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self.counters = {"received": 0, "accepted": 0, "rejected": 0,
                         "completed": 0, "errors": 0, "fallbacks": 0,
                         "swaps": 0, "cancelled": 0, "expired": 0,
                         "replayed": 0, "observer_faults": 0}
        self.reject_reasons: dict[str, int] = {}
        self._latency = LatencyReservoir(reservoir)
        self._queue_wait = LatencyReservoir(reservoir)
        self._engine = LatencyReservoir(reservoir)
        self._return = LatencyReservoir(reservoir)
        self._per_model: dict[str, LatencyReservoir] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record_rejection(self, reason: str) -> None:
        with self._lock:
            self.counters["rejected"] += 1
            self.reject_reasons[reason] = \
                self.reject_reasons.get(reason, 0) + 1

    def record_completion(self, model: str, latency_ms: float,
                          queue_wait_ms: float | None = None,
                          engine_ms: float | None = None,
                          return_ms: float | None = None) -> None:
        """Count one answered request; a batched one also feeds its stage
        reservoirs (see :meth:`repro.infer.InferenceTicket.stages_ms`)."""
        with self._lock:
            self.counters["completed"] += 1
            self._latency.record(latency_ms)
            for reservoir, value in ((self._queue_wait, queue_wait_ms),
                                     (self._engine, engine_ms),
                                     (self._return, return_ms)):
                if value is not None:
                    reservoir.record(value)
            per_model = self._per_model.get(model)
            if per_model is None:
                per_model = self._per_model[model] = \
                    LatencyReservoir(self._reservoir)
            per_model.record(latency_ms)

    def latency_samples(self) -> list[float]:
        """Retained request-latency window (for cross-replica merging)."""
        with self._lock:
            return self._latency.samples()

    def snapshot(self, extra: dict | None = None) -> dict:
        """JSON-ready view; ``extra`` merges model/shed state from callers."""
        with self._lock:
            payload = {
                "counters": dict(self.counters),
                "reject_reasons": dict(self.reject_reasons),
                "latency": self._latency.summary(),
                "queue_wait": self._queue_wait.summary(),
                "engine": self._engine.summary(),
                "return": self._return.summary(),
                "per_model": {name: r.summary()
                              for name, r in self._per_model.items()},
            }
        if extra:
            payload.update(extra)
        return payload
