"""Self-healing serve client: reconnect, back off, trip, probe, recover.

:class:`~.client.ServeClient` is deliberately dumb — one socket, first
fault wins. :class:`ResilientClient` wraps it with the operational
behaviours a caller actually wants from a service that sheds load,
drains for restarts, and comes back on a new process:

* **reconnect-on-EOF** — a dropped connection (server restart, network
  blip) is re-dialled transparently and the request re-sent;
* **bounded backoff** — ``overloaded`` / ``draining`` rejections and
  connect failures are retried under a
  :class:`repro.resilience.retry.RetryPolicy` (deterministic seeded
  jitter, hard attempt cap), so a thundering herd of clients spreads out
  and a dead server is given up on, loudly, via
  :class:`~repro.resilience.retry.RetryBudgetExhausted`;
* **idempotent request ids** — every logical request carries a stable
  ``rid``; a retry after a dropped response replays from the server's
  cache, so the work (and every server metric) is counted exactly once
  no matter how many times the wire failed;
* **circuit breaker** — after ``failure_threshold`` consecutive
  transport faults the breaker opens and calls fail fast with
  :class:`CircuitOpenError` instead of queueing behind a dead host;
  after ``cooldown_s`` one half-open probe is allowed through, and its
  outcome closes or re-opens the circuit.

All waiting and timing go through the injectable
:class:`repro.clock.Clock`, so every backoff schedule and breaker
transition is testable on a :class:`repro.clock.FakeClock` without a
single wall-clock sleep.
"""

from __future__ import annotations

import os

import numpy as np

from ..clock import SYSTEM_CLOCK, Clock
from ..resilience.retry import RetryBudgetExhausted, RetryPolicy
from .client import Draining, Overloaded, ServeClient

__all__ = ["CircuitOpenError", "CircuitBreaker", "ResilientClient"]


class CircuitOpenError(RuntimeError):
    """The breaker is open: the server has been failing; try again after
    the cooldown (a half-open probe will test it first)."""


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    States: ``closed`` (all calls pass) → ``open`` after
    ``failure_threshold`` consecutive failures (calls fail fast) →
    ``half-open`` once ``cooldown_s`` has elapsed (exactly one probe
    passes; its success closes the circuit, its failure re-opens it and
    restarts the cooldown).
    """

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 1.0,
                 *, clock: Clock = SYSTEM_CLOCK):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False

    def allow(self) -> bool:
        """May a call proceed right now? (Half-open admits one probe.)"""
        if self.state == "closed":
            return True
        if self.state == "open":
            elapsed = self.clock.monotonic() - self._opened_at
            if elapsed >= self.cooldown_s:
                self.state = "half-open"
                self._probing = True
                return True
            return False
        # half-open: the single probe is already out.
        if not self._probing:
            self._probing = True
            return True
        return False

    def on_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self._opened_at = None
        self._probing = False

    def on_failure(self) -> None:
        self.consecutive_failures += 1
        if (self.state == "half-open"
                or self.consecutive_failures >= self.failure_threshold):
            self.state = "open"
            self._opened_at = self.clock.monotonic()
            self._probing = False

    def clone(self) -> "CircuitBreaker":
        """A fresh (closed) breaker with the same thresholds and clock."""
        return CircuitBreaker(self.failure_threshold, self.cooldown_s,
                              clock=self.clock)

    def snapshot(self) -> dict:
        """JSON-ready view of the breaker's current state."""
        cooldown_remaining = 0.0
        if self.state == "open" and self._opened_at is not None:
            cooldown_remaining = max(
                self.cooldown_s - (self.clock.monotonic() - self._opened_at),
                0.0)
        return {"state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "cooldown_remaining_s": round(cooldown_remaining, 3),
                "probing": self._probing}


class ResilientClient:
    """A :class:`ServeClient` that survives restarts, sheds, and drains.

    Same verbs as :class:`ServeClient`; every request is retried under
    ``policy`` with a stable idempotency key, the connection is re-made
    on EOF, and ``breaker`` (optional) fails fast while the server is
    known-dead. Non-retryable server answers (``bad-request``,
    ``no-such-model``, ``expired``, ...) propagate immediately — backoff
    must never mask a caller bug.

    ``endpoints`` (optional) lists additional ``(host, port)`` fallbacks:
    a transport fault fails the *current* endpoint over to the next one,
    and each endpoint carries its own circuit breaker (cloned from
    ``breaker``), so one dead frontend doesn't open the circuit for its
    healthy siblings. :attr:`stats` exposes the per-endpoint breaker
    states alongside the transport counters.
    """

    RETRYABLE = (Overloaded, Draining, ConnectionError, OSError)

    def __init__(self, host: str, port: int, *,
                 policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 clock: Clock = SYSTEM_CLOCK,
                 timeout: float = 60.0,
                 client_id: str | None = None,
                 endpoints: list[tuple[str, int]] | None = None):
        self.endpoints = [(host, int(port))]
        for ep_host, ep_port in endpoints or ():
            self.endpoints.append((ep_host, int(ep_port)))
        self._active = 0
        self.host, self.port = self.endpoints[0]
        self.policy = policy or RetryPolicy(max_attempts=6, base_delay=0.05,
                                            factor=2.0, max_delay=2.0)
        self.breaker = breaker          # the primary endpoint's breaker
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        if breaker is not None:
            self._breakers[self.endpoints[0]] = breaker
            for endpoint in self.endpoints[1:]:
                self._breakers[endpoint] = breaker.clone()
        self.clock = clock
        self.timeout = timeout
        # Stable across reconnects, distinct across processes/instances:
        # the server's replay cache keys on it.
        self.client_id = client_id or f"rc-{os.getpid()}-{id(self):x}"
        self._seq = 0
        self._client: ServeClient | None = None
        self._counts = {"reconnects": 0, "retries": 0, "replayed": 0,
                        "breaker_fast_fails": 0, "failovers": 0}

    @property
    def stats(self) -> dict:
        """Transport counters plus per-endpoint circuit-breaker state."""
        payload = dict(self._counts)
        payload["endpoint"] = f"{self.host}:{self.port}"
        if self._breakers:
            payload["breakers"] = {
                f"{ep_host}:{ep_port}": b.snapshot()
                for (ep_host, ep_port), b in self._breakers.items()}
        return payload

    # -- plumbing -------------------------------------------------------

    def _connected(self) -> ServeClient:
        if self._client is None:
            self._client = ServeClient(self.host, self.port,
                                       timeout=self.timeout)
        return self._client

    def _disconnect(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None

    def _endpoint_breaker(self) -> CircuitBreaker | None:
        return self._breakers.get(self.endpoints[self._active])

    def _failover(self) -> None:
        """Point at the next endpoint (no-op with a single endpoint)."""
        if len(self.endpoints) == 1:
            return
        self._disconnect()
        self._active = (self._active + 1) % len(self.endpoints)
        self.host, self.port = self.endpoints[self._active]
        self._counts["failovers"] += 1

    def _admitted(self) -> bool:
        """Position on an endpoint whose breaker admits a call.

        Rotates past open circuits (each endpoint's own breaker decides,
        including the half-open single-probe admission); False when every
        endpoint's circuit is open.
        """
        if not self._breakers:
            return True
        for _ in range(len(self.endpoints)):
            if self._endpoint_breaker().allow():
                return True
            if len(self.endpoints) == 1:
                return False
            self._failover()
        return False

    def request(self, payload: dict, body=None, *,
                idempotent: bool = True) -> dict:
        """Send one logical request, healing the transport as needed.

        ``body`` is an optional tensor sent as raw float32 bytes, as in
        :meth:`ServeClient.request`; every retry re-sends it.
        """
        self._seq += 1
        if idempotent:
            payload.setdefault("rid", f"{self.client_id}:{self._seq}")
        last: BaseException | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self._counts["retries"] += 1
                self.clock.sleep(self.policy.delay(attempt - 1))
            if not self._admitted():
                self._counts["breaker_fast_fails"] += 1
                breaker = self._endpoint_breaker()
                raise CircuitOpenError(
                    f"circuit open after {breaker.consecutive_failures} "
                    f"consecutive failures; cooling down "
                    f"{breaker.cooldown_s:.1f}s")
            breaker = self._endpoint_breaker()
            try:
                response = self._connected().request(dict(payload), body)
            except (Overloaded, Draining) as exc:
                # The server answered — it is alive, just not willing.
                # That feeds backoff, not the breaker.
                if breaker is not None:
                    breaker.on_success()
                last = exc
                continue
            except (ConnectionError, OSError) as exc:
                self._disconnect()
                self._counts["reconnects"] += 1
                if breaker is not None:
                    breaker.on_failure()
                self._failover()
                last = exc
                continue
            if breaker is not None:
                breaker.on_success()
            if response.get("replayed"):
                self._counts["replayed"] += 1
            return response
        raise RetryBudgetExhausted(
            f"request still failing after {self.policy.max_attempts} "
            f"attempts: {last}", attempts=self.policy.max_attempts) from last

    # -- verbs ----------------------------------------------------------

    def infer(self, model: str, sample,
              deadline_ms: float | None = None) -> np.ndarray:
        response = self.infer_verbose(model, sample, deadline_ms)
        return np.asarray(response["output"], dtype=np.float32)

    def infer_verbose(self, model: str, sample,
                      deadline_ms: float | None = None) -> dict:
        payload = {"op": "infer", "model": model}
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        return self.request(payload, body=sample)

    def stats_snapshot(self) -> dict:
        return self.request({"op": "stats"}, idempotent=False)["stats"]

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"},
                                 idempotent=False).get("pong"))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
