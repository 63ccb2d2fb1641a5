"""Health-aware request router over a :class:`~.replica.ReplicaSet`.

The asyncio frontend (:class:`~.server.InferenceServer`) stays the single
front door; when constructed with a router it stops running inference on
its own thread and instead dispatches each accepted request to one of N
replica processes:

* **least-outstanding routing** — the replica with the fewest in-flight
  requests wins (ties break on total served, then id), skipping replicas
  whose circuit breaker is open;
* **liveness probes** — a periodic ``ping`` per replica, answered by the
  replica's *serving* threads: a wedged replica with a healthy heartbeat
  thread fails the probe and is SIGKILLed, funnelling hangs into the
  same EOF-detection path as crashes (the PR 5 watchdog story);
* **idempotent re-dispatch** — every request is keyed by a router
  ``rid``; when a replica dies, its outstanding rids are immediately
  re-sent to surviving replicas (at most ``MAX_DISPATCH_RETRIES``).
  The first reply wins and duplicates are discarded, so an accepted
  request is answered exactly once no matter how many replicas failed
  under it;
* **bounded respawn → degrade** — dead replicas are respawned through
  the set's shared :class:`~repro.resilience.retry.RetryPolicy` budget;
  once it is spent the router flips to ``degraded``
  (``stop_reason="replicas-degraded"``), resolves everything in flight
  toward the server's in-process single-runner path, and stops touching
  processes. Accepted requests survive the transition;
* **rolling deploys** — :meth:`ReplicaRouter.rolling_deploy` drains and
  re-deploys one replica at a time through each replica's own
  compile+probe-validate gate, so capacity never drops below N−1 and a
  rejected artifact aborts with every replica still on the old version.

Request and reply tensors cross the replica hop as binary frames
(:mod:`.wire`): the router forwards their bodies as bytes and never
decodes them.

Failing over to the local path is signalled with
:class:`ReplicasUnavailable` — the server catches it and serves the
request itself, so "no replica could take it" degrades latency, never
correctness.
"""

from __future__ import annotations

import asyncio

from ..clock import SYSTEM_CLOCK, Clock
from ..infer.batcher import DeadlineExpired
from . import wire
from .metrics import LatencyReservoir, sum_counters
from .replica import ReplicaSet, ReplicaSpec

__all__ = ["ReplicasUnavailable", "ReplicaRouter"]

START_DEADLINE_S = 30.0         # socket connect budget per spawn
DEPLOY_TIMEOUT_S = 120.0        # compile + validate budget
MAX_DISPATCH_RETRIES = 2        # re-dispatches per request
BREAKER_FAILURES = 3            # per-replica circuit breaker
BREAKER_COOLDOWN_S = 0.5
DRAIN_POLL_S = 0.01             # rolling-deploy drain poll
ROLLING_DRAIN_TIMEOUT_S = 10.0


class ReplicasUnavailable(RuntimeError):
    """No replica could serve this request; the caller should serve it
    on the in-process path instead. Never surfaces to a client."""


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    States: ``closed`` (all calls pass) → ``open`` after
    ``failure_threshold`` consecutive failures (calls fail fast) →
    ``half-open`` once ``cooldown_s`` has elapsed (exactly one probe
    passes; its success closes the circuit, its failure re-opens it and
    restarts the cooldown).
    """

    def __init__(self, failure_threshold: int = BREAKER_FAILURES,
                 cooldown_s: float = BREAKER_COOLDOWN_S, *,
                 clock: Clock = SYSTEM_CLOCK):
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
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


class _Peer:
    """Router-side connection + routing state for one replica seat."""

    def __init__(self, handle, breaker: CircuitBreaker):
        self.handle = handle
        self.breaker = breaker
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reader_task: asyncio.Task | None = None
        self.rids: set[str] = set()     # in-flight request/control rids
        self.alive = False              # transport up
        self.routable = False           # deployed + accepting traffic
        self.reviving = False
        self.served = 0
        self.probe_rid: str | None = None
        self.probe_sent_at: float = 0.0


class _ReqMeta:
    """Re-dispatch bookkeeping for one inference rid."""

    __slots__ = ("payload", "body", "deadline", "attempts")

    def __init__(self, payload: dict, body, deadline: float | None):
        self.payload = payload
        self.body = body                # request tensor bytes, forwarded
        self.deadline = deadline
        self.attempts = 0               # re-dispatches so far


class ReplicaRouter:
    """Dispatches server requests across a :class:`ReplicaSet`."""

    def __init__(self, replica_set: ReplicaSet,
                 specs: list[ReplicaSpec] | tuple[ReplicaSpec, ...], *,
                 metrics=None, clock: Clock = SYSTEM_CLOCK):
        self.set = replica_set
        self.config = replica_set.config
        self.specs = list(specs)
        self.metrics = metrics          # ServerMetrics, set by the server
        self.clock = clock
        self.degraded = False
        self.stop_reason: str | None = None
        self._started = False
        self._closing = False
        self._seq = 0
        self._inflight: dict[str, asyncio.Future] = {}
        self._meta: dict[str, _ReqMeta] = {}
        self._peers = [_Peer(handle, CircuitBreaker(clock=clock))
                       for handle in replica_set.handles]
        self._probe_task: asyncio.Task | None = None
        self._rolling_lock: asyncio.Lock | None = None

    @property
    def usable(self) -> bool:
        return self._started and not self.degraded and not self._closing

    def _incr(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.incr(name)

    def _next_rid(self, prefix: str) -> str:
        self._seq += 1
        return f"{prefix}{self._seq}"

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Connect to every replica and deploy the initial specs.

        Raises if any replica fails to come up or rejects a deploy —
        a broken initial configuration is a startup error, not a fault
        to route around.
        """
        self._rolling_lock = asyncio.Lock()
        try:
            await asyncio.gather(*(self._attach(peer)
                                   for peer in self._peers))
        except BaseException:
            await self.aclose()
            raise
        self._probe_task = asyncio.create_task(self._probe_loop())
        self._started = True

    async def aclose(self) -> None:
        if self._closing:
            return
        self._closing = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
        for peer in self._peers:
            await self._detach(peer)
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_exception(ReplicasUnavailable("router closing"))
        await asyncio.to_thread(self.set.close)

    # -- transport ------------------------------------------------------

    async def _attach(self, peer: _Peer) -> None:
        """Dial one replica's socket and push the current specs through
        its deploy gate; on any failure the peer is left fully detached."""
        handle = peer.handle
        deadline = self.clock.monotonic() + START_DEADLINE_S
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(handle.socket_path))
                break
            except (FileNotFoundError, ConnectionRefusedError, OSError):
                if not handle.alive:
                    raise RuntimeError(
                        f"replica {handle.replica_id} died during startup "
                        f"(exitcode {handle.proc.exitcode})")
                if self.clock.monotonic() >= deadline:
                    raise RuntimeError(
                        f"replica {handle.replica_id} did not come up "
                        f"within {START_DEADLINE_S:.1f}s")
                await asyncio.sleep(0.02)
        peer.reader, peer.writer = reader, writer
        peer.alive = True
        peer.reader_task = asyncio.create_task(self._read_loop(peer))
        try:
            for spec in self.specs:
                reply = await self._control(
                    peer, spec.deploy_payload(),
                    timeout=DEPLOY_TIMEOUT_S)
                if not reply.get("ok"):
                    raise RuntimeError(
                        f"replica {handle.replica_id} rejected deploy of "
                        f"{spec.ref}: {reply.get('message', reply)}")
        except BaseException:
            await self._detach(peer)
            raise
        peer.routable = True

    async def _detach(self, peer: _Peer) -> None:
        peer.alive = False
        peer.routable = False
        task, peer.reader_task = peer.reader_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: B014,BLE001
                pass
        if peer.writer is not None:
            peer.writer.close()
        peer.reader = peer.writer = None
        peer.probe_rid = None

    def _send(self, peer: _Peer, payload: dict, body=None) -> bool:
        if peer.writer is None or peer.writer.is_closing():
            return False
        try:
            peer.writer.write(wire.encode(payload, body))
        except (ConnectionError, OSError, RuntimeError):
            return False
        return True

    async def _read_loop(self, peer: _Peer) -> None:
        try:
            while True:
                msg, body = await wire.read_frame_async(peer.reader,
                                                        "output_shape")
                self._on_reply(peer, msg, body)
        except (ConnectionError, OSError, ValueError):
            pass                        # EOF, or the framing is lost
        except asyncio.CancelledError:
            return                      # orderly detach, not a fault
        if not self._closing:
            self._on_peer_down(peer)

    # -- reply / failure handling ---------------------------------------

    def _on_reply(self, peer: _Peer, msg: dict, body=None) -> None:
        rid = msg.get("rid")
        if rid is None:
            return
        peer.rids.discard(rid)
        if rid == peer.probe_rid:
            peer.probe_rid = None
            peer.breaker.on_success()
            return
        fut = self._inflight.get(rid)
        if fut is None or fut.done():
            # A reply to a request whose caller already timed out.
            self._incr("replica_duplicates")
            return
        peer.served += 1
        peer.breaker.on_success()
        fut.set_result((msg, body))

    def _on_peer_down(self, peer: _Peer) -> None:
        """Transport died: strand-proof every rid it was carrying, then
        start the bounded respawn path (unless already degraded)."""
        if not peer.alive:
            return
        peer.alive = False
        peer.routable = False
        peer.breaker.on_failure()
        if peer.writer is not None:
            peer.writer.close()
        peer.reader = peer.writer = None
        peer.reader_task = None
        peer.probe_rid = None
        handle = peer.handle
        if handle.kill_reason is None:
            exitcode = handle.proc.exitcode if handle.proc else None
            self.set.emit("crash", handle.replica_id,
                          detail=f"replica connection lost "
                                 f"(exitcode {exitcode})")
        stranded, peer.rids = sorted(peer.rids), set()
        for rid in stranded:
            self._redispatch(rid)
        if not self._closing and not self.degraded and not peer.reviving:
            peer.reviving = True
            asyncio.create_task(self._revive(peer))

    def _redispatch(self, rid: str) -> None:
        """Re-send one stranded rid to a surviving replica (bounded)."""
        fut = self._inflight.get(rid)
        if fut is None or fut.done():
            return
        meta = self._meta.get(rid)
        if meta is None:                # control request: not re-playable
            fut.set_exception(
                ReplicasUnavailable("replica died mid-request"))
            return
        if meta.attempts >= MAX_DISPATCH_RETRIES:
            fut.set_exception(ReplicasUnavailable(
                f"re-dispatch budget spent ({MAX_DISPATCH_RETRIES})"))
            return
        peer = self._pick()
        if peer is None:
            fut.set_exception(
                ReplicasUnavailable("no routable replica left"))
            return
        meta.attempts += 1
        self._incr("replica_redispatches")
        self._send_infer(peer, rid, meta)

    async def _revive(self, peer: _Peer) -> None:
        """Respawn + re-attach one seat until it serves or budgets die."""
        handle = peer.handle
        try:
            while not self._closing and not self.degraded:
                ok = await asyncio.to_thread(self.set.respawn,
                                             handle.replica_id)
                if not ok:
                    self._degrade("replica respawn budget exhausted")
                    return
                try:
                    await self._attach(peer)
                    return
                except Exception as exc:  # noqa: BLE001 - retry in budget
                    self.set.kill(handle.replica_id,
                                  reason=f"re-attach failed: {exc}",
                                  kind="crash")
        finally:
            peer.reviving = False

    def _degrade(self, reason: str) -> None:
        """Budgets are spent: flip to the in-process single-runner path."""
        if self.degraded:
            return
        self.degraded = True
        self.stop_reason = "replicas-degraded"
        self._incr("replica_degrades")
        self.set.emit("degrade", -1, detail=reason)
        if self._probe_task is not None:
            self._probe_task.cancel()
        for fut in self._inflight.values():
            if not fut.done():
                # Resolves toward the server's local fallback — accepted
                # requests ride out the degrade, they are not dropped.
                fut.set_exception(ReplicasUnavailable(reason))
        for peer in self._peers:
            if peer.reader_task is not None:
                peer.reader_task.cancel()
                peer.reader_task = None
            if peer.writer is not None:
                peer.writer.close()
            peer.reader = peer.writer = None
            peer.alive = peer.routable = False
        asyncio.create_task(asyncio.to_thread(self.set.close))

    # -- routing --------------------------------------------------------

    def _pick(self) -> _Peer | None:
        """Least-outstanding routable replica whose breaker admits it."""
        candidates = [p for p in self._peers if p.alive and p.routable]
        candidates.sort(key=lambda p: (len(p.rids), p.served,
                                       p.handle.replica_id))
        for peer in candidates:
            # allow() consumes the half-open probe slot, so it is only
            # asked of the peer we would actually use, best first.
            if peer.breaker.allow():
                return peer
        return None

    def _send_infer(self, peer: _Peer, rid: str, meta: _ReqMeta) -> None:
        payload = dict(meta.payload)
        payload["rid"] = rid
        if meta.deadline is not None:
            payload["deadline_ms"] = max(
                (meta.deadline - self.clock.monotonic()) * 1e3, 1.0)
        peer.rids.add(rid)
        if not self._send(peer, payload, meta.body):
            peer.rids.discard(rid)
            self._on_peer_down(peer)    # dead transport found early
            self._redispatch(rid)       # bounded by meta.attempts

    async def dispatch_infer(self, ref: str, input_shape: list[int], body,
                             deadline: float | None = None
                             ) -> tuple[dict, bytes | None]:
        """Route one inference; returns the winning replica's reply
        header and body.

        ``body`` is the sample's raw float32 bytes and ``input_shape``
        its shape; both are forwarded as they are. ``deadline`` is
        absolute seconds on the router's clock. Raises
        :class:`ReplicasUnavailable` when the request should be served
        locally instead, :class:`DeadlineExpired`/`TimeoutError` when its
        budget ran out here.
        """
        if not self.usable:
            raise ReplicasUnavailable(self.stop_reason or "router not up")
        rid = self._next_rid("q")
        meta = _ReqMeta({"op": "infer", "model": ref,
                         "input_shape": input_shape}, body, deadline)
        fut = asyncio.get_running_loop().create_future()
        self._inflight[rid] = fut
        self._meta[rid] = meta
        try:
            peer = self._pick()
            if peer is None:
                raise ReplicasUnavailable("no routable replica")
            self._send_infer(peer, rid, meta)
            timeout = self.config.request_timeout_s
            if deadline is not None:
                timeout = min(timeout,
                              max(deadline - self.clock.monotonic(), 0.0))
            try:
                reply = await asyncio.wait_for(fut, timeout)
            except asyncio.TimeoutError:
                if deadline is not None \
                        and self.clock.monotonic() >= deadline:
                    raise DeadlineExpired(
                        "request deadline passed while waiting for a "
                        "replica") from None
                raise TimeoutError(
                    f"replicated inference exceeded "
                    f"{self.config.request_timeout_s:.1f}s budget") from None
            return reply
        finally:
            self._inflight.pop(rid, None)
            self._meta.pop(rid, None)
            for p in self._peers:
                p.rids.discard(rid)

    # -- liveness probes -------------------------------------------------

    async def _probe_loop(self) -> None:
        while not self._closing and not self.degraded:
            await asyncio.sleep(self.config.probe_interval_s)
            self.probe_scan(self.clock.monotonic())

    def probe_scan(self, now: float) -> None:
        """One probe round (factored out of the loop for deterministic
        tests): time out wedged replicas, then send fresh pings."""
        for peer in self._peers:
            if not peer.alive or not peer.routable:
                continue
            if peer.probe_rid is not None:
                waited = now - peer.probe_sent_at
                if waited >= self.config.probe_timeout_s:
                    peer.breaker.on_failure()
                    self.set.kill(
                        peer.handle.replica_id,
                        reason=f"liveness probe unanswered for "
                               f"{waited:.2f}s (limit "
                               f"{self.config.probe_timeout_s}s)",
                        kind="hang")
                continue
            rid = self._next_rid("p")
            peer.probe_rid = rid
            peer.probe_sent_at = now
            self._send(peer, {"op": "ping", "rid": rid})

    # -- control-plane requests ------------------------------------------

    async def _control(self, peer: _Peer, payload: dict,
                       timeout: float) -> dict:
        """One rid-keyed request to a *specific* replica (deploy/stats).

        Control requests are not re-dispatchable; a replica death turns
        into an error reply, never a retry on a different replica."""
        rid = self._next_rid("c")
        fut = asyncio.get_running_loop().create_future()
        self._inflight[rid] = fut
        peer.rids.add(rid)
        try:
            if not peer.alive or not self._send(peer,
                                                {**payload, "rid": rid}):
                return {"ok": False, "error": "replica-down",
                        "message": f"replica {peer.handle.replica_id} "
                                   "is not reachable"}
            try:
                msg, _ = await asyncio.wait_for(fut, timeout)
            except asyncio.TimeoutError:
                return {"ok": False, "error": "timeout",
                        "message": f"replica {peer.handle.replica_id} did "
                                   f"not answer within {timeout:.1f}s"}
            except ReplicasUnavailable as exc:
                return {"ok": False, "error": "replica-down",
                        "message": str(exc)}
            return msg
        finally:
            self._inflight.pop(rid, None)
            peer.rids.discard(rid)

    # -- rolling deploy ---------------------------------------------------

    def _set_spec(self, spec: ReplicaSpec) -> None:
        self.specs = [s for s in self.specs if s.name != spec.name]
        self.specs.append(spec)

    async def _drain_peer(self, peer: _Peer) -> None:
        deadline = self.clock.monotonic() + ROLLING_DRAIN_TIMEOUT_S
        while peer.rids and self.clock.monotonic() < deadline:
            await asyncio.sleep(DRAIN_POLL_S)

    async def rolling_deploy(self, name: str, version: str, *,
                             checkpoint=None, artifact=None) -> dict:
        """Drain + re-deploy one replica at a time; abort on first reject.

        At most one replica is unroutable at any instant (capacity never
        below N−1); each replica runs the full compile+probe-validate
        deploy gate itself, and a rejection aborts the roll with every
        replica — including the one that rejected — still serving the
        old version. Only after every live replica accepted does the new
        spec become what respawned replicas will deploy.
        """
        spec = ReplicaSpec(name, version,
                           checkpoint=None if checkpoint is None
                           else str(checkpoint),
                           artifact=None if artifact is None
                           else str(artifact))
        if self._rolling_lock is None or not self.usable:
            return {"ok": False, "error": "replicas-unavailable",
                    "message": self.stop_reason or "router not up"}
        async with self._rolling_lock:
            updated: list[int] = []
            last_swap = None
            for peer in sorted(self._peers,
                               key=lambda p: p.handle.replica_id):
                if not (peer.alive and peer.routable):
                    continue            # a dead seat redeploys at revive
                peer.routable = False
                self.set.emit("rolling", peer.handle.replica_id,
                              detail=f"drain + deploy {spec.ref}")
                try:
                    await self._drain_peer(peer)
                    reply = await self._control(
                        peer, spec.deploy_payload(),
                        timeout=DEPLOY_TIMEOUT_S)
                finally:
                    peer.routable = peer.alive
                if not reply.get("ok"):
                    return {"ok": False,
                            "error": reply.get("error", "swap-rejected"),
                            "message": reply.get("message", ""),
                            "updated": updated,
                            "aborted_at": peer.handle.replica_id}
                last_swap = reply.get("swap")
                updated.append(peer.handle.replica_id)
            self._set_spec(spec)
            self._incr("replica_rolling_deploys")
            return {"ok": True, "updated": updated, "swap": last_swap}

    # -- fleet stats ------------------------------------------------------

    async def fleet_snapshot(self) -> dict:
        """Fleet-wide p50/p99 + counters, with a per-replica breakdown.

        Per-replica reservoirs come back over the wire as raw sample
        windows and are merged with :meth:`LatencyReservoir.merged`;
        counters sum with :func:`sum_counters`. Replicas that fail to
        answer in time simply contribute nothing — stats must never
        block the control plane on a sick replica.
        """
        per_replica: dict[str, dict] = {}
        for peer in self._peers:
            per_replica[str(peer.handle.replica_id)] = {
                "alive": peer.alive,
                "routable": peer.routable,
                "outstanding": len(peer.rids),
                "served": peer.served,
                "generation": peer.handle.generation,
                "restarts": peer.handle.restarts,
                "breaker": peer.breaker.snapshot(),
            }
        alive = [p for p in self._peers if p.alive]
        replies = await asyncio.gather(
            *(self._control(p, {"op": "stats"}, timeout=2.0)
              for p in alive), return_exceptions=True)
        reservoirs: list[LatencyReservoir] = []
        counter_maps: list[dict] = []
        for peer, reply in zip(alive, replies):
            if isinstance(reply, BaseException) or not reply.get("ok"):
                continue
            stats = reply.get("stats", {})
            entry = per_replica[str(peer.handle.replica_id)]
            entry["counters"] = stats.get("counters", {})
            entry["latency"] = stats.get("latency")
            entry["models"] = stats.get("models")
            samples = stats.get("latency_samples", [])
            lifetime = (stats.get("latency") or {}).get("count")
            reservoirs.append(LatencyReservoir.from_samples(
                samples, lifetime=lifetime))
            counter_maps.append(stats.get("counters", {}))
        return {
            "degraded": self.degraded,
            "stop_reason": self.stop_reason,
            "respawns": self.set.respawns_used,
            "events": [e.payload() for e in self.set.events[-20:]],
            "fleet": {
                "counters": sum_counters(counter_maps),
                "latency": (LatencyReservoir.merged(reservoirs).summary()
                            if reservoirs else None),
            },
            "per_replica": per_replica,
        }
