"""Replica worker processes: the compute tier behind the router.

One :class:`ReplicaSet` owns N worker *processes*, each running its own
:class:`~repro.serve.registry.ModelRegistry` (compiled engine + its own
:class:`~repro.infer.BatchRunner`) behind a private unix-domain
socket. The asyncio frontend (:class:`~repro.serve.router.ReplicaRouter`)
dials those sockets and spreads traffic across them, so a crash, hang,
or GIL-bound compute spike in one replica costs 1/N capacity instead of
the whole service.

Supervision: each replica stamps a heartbeat slot in a shared
``mp.Array``; a parent-side watchdog SIGKILLs any replica whose
heartbeat goes stale, funnelling *every* fault — crash, freeze, kill -9
— into one detection path (process death, seen by the router as EOF on
the replica socket). Respawns are bounded by a deterministic
:class:`~repro.resilience.retry.RetryPolicy` budget shared across the
set; once it is spent the router degrades to the in-process single-runner
path with ``stop_reason="replicas-degraded"`` instead of flapping. Every
decision is recorded as a :class:`WorkerEvent`.

Replica-owned filesystem artifacts (the socket directory, each
incarnation's socket and pid file) are ledgered with
:func:`repro.serve.reaper.register_path`, so a SIGKILLed serve run
leaves nothing behind that the next run's orphan sweep won't reclaim.

Replica wire protocol (the binary frames of :mod:`.wire`, as on the
public server: one JSON header line, plus a raw float32 body when the
header names its shape):

* ``{"op": "ping", "rid": r}`` → ``{"rid": r, "ok": true, "pong": true}``
  — the router's liveness probe; answered from a connection thread, so a
  wedged serving path (not just a dead process) fails to answer.
* ``{"op": "deploy", "rid": r, "name": ..., "version": ...,
  "checkpoint"|"artifact": path}`` — runs the full compile+probe-validate
  deploy gate of the replica's own registry, off-thread so probes keep
  flowing during a long compile. A rejected artifact answers
  ``error: "swap-rejected"`` and leaves the old version serving.
* ``{"op": "infer", "rid": r, "model": ..., "input_shape": [...],
  "deadline_ms": ...}`` + body — batched inference, answered with
  ``{"rid": r, "ok": true, "output_shape": [...], "queue_wait_ms": ...,
  "engine_ms": ..., "return_ms": ..., ...}`` + the output row's bytes.
  The sample is decoded with ``np.frombuffer`` and its shape and
  finiteness checked before it is queued; replies may arrive out of
  order (the ticket callback writes the response under a write lock).
* ``{"op": "stats"}`` — counters + retained latency samples for
  fleet-wide aggregation; ``{"op": "chaos"}`` (only when
  ``allow_chaos=True``) wedges the service for hang drills.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience.retry import RetryPolicy
from . import reaper, wire

__all__ = ["ReplicaSpec", "ReplicaConfig", "ReplicaSet", "WorkerEvent"]

HEARTBEAT_S = 0.05              # replica stamp + watchdog scan period
STALE_AFTER_S = 2.0             # heartbeat age ⇒ SIGKILL
RESPAWN_MAX_DELAY_S = 1.0       # cap on one respawn backoff


@dataclass
class WorkerEvent:
    """One supervision decision of the fleet (kill, respawn, degrade, …)."""

    kind: str           # crash | hang | stale | respawn | rolling | degrade
    worker_id: int
    attempt: int = 0
    detail: str = ""
    wallclock: float = field(default_factory=time.time)

    def payload(self) -> dict:
        """JSON-serialisable form, as the ``stats`` op reports it."""
        return {"kind": self.kind, "worker_id": self.worker_id,
                "attempt": self.attempt, "detail": self.detail,
                "wallclock": self.wallclock}


@dataclass(frozen=True)
class ReplicaSpec:
    """One ``name@version`` a replica must serve, and where to load it."""

    name: str
    version: str
    checkpoint: str | None = None
    artifact: str | None = None

    def deploy_payload(self) -> dict:
        payload = {"op": "deploy", "name": self.name, "version": self.version}
        if self.checkpoint is not None:
            payload["checkpoint"] = str(self.checkpoint)
        if self.artifact is not None:
            payload["artifact"] = str(self.artifact)
        return payload

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"


@dataclass(frozen=True)
class ReplicaConfig:
    """Sizing, supervision, and routing knobs of the replica tier."""

    replicas: int = 2
    max_batch: int = 8                  # per-replica engine batch
    socket_dir: str | None = None       # default: fresh ledgered tmpdir
    probe_interval_s: float = 0.25      # router liveness ping period
    probe_timeout_s: float = 2.0        # unanswered ping ⇒ SIGKILL
    max_respawns: int = 3               # set-wide respawn budget
    respawn_base_delay_s: float = 0.05  # first respawn backoff
    request_timeout_s: float = 30.0     # router-side wait per request
    allow_chaos: bool = False           # enable the "chaos" op (drills)
    engine_delay_ms: float = 0.0        # slow the engine down (drills)

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=self.max_respawns + 1,
                           base_delay=self.respawn_base_delay_s,
                           factor=2.0, max_delay=RESPAWN_MAX_DELAY_S,
                           jitter=0.1, seed=0)


# ---------------------------------------------------------------------------
# replica process body
# ---------------------------------------------------------------------------


class _DelayedEngine:
    """Chaos shim: a compiled engine with an artificial per-run delay."""

    def __init__(self, engine, delay_s: float):
        self._engine = engine
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run(self, batch):
        time.sleep(self._delay_s)
        return self._engine.run(batch)


class _ReplicaService:
    """Everything that runs *inside* one replica process."""

    def __init__(self, replica_id: int, config: ReplicaConfig):
        # Imported here (not module top level) purely for clarity that
        # these objects live in the child: each replica owns a private
        # registry/metrics pair, never shared memory with the parent.
        from .metrics import ServerMetrics
        from .registry import ModelRegistry
        self.replica_id = replica_id
        self.config = config
        self.metrics = ServerMetrics()
        self.registry = ModelRegistry(max_batch=config.max_batch,
                                      metrics=self.metrics)
        self._deploy_lock = threading.Lock()
        self._stop = threading.Event()
        self._wedged = False            # chaos: hang the serving path

    # -- socket loop ----------------------------------------------------

    def serve(self, socket_path: str) -> None:
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        listener.bind(socket_path)
        listener.listen(8)
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True,
                             name=f"repro-replica-{self.replica_id}").start()
        listener.close()
        self.registry.close()

    def _serve_conn(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        write_lock = threading.Lock()

        def send(payload: dict, body=None) -> None:
            data = wire.encode(payload, body)
            try:
                with write_lock:
                    conn.sendall(data)
            except OSError:
                pass                    # peer gone; router re-dispatches

        try:
            while True:
                try:
                    msg, body = wire.read_frame(reader, "input_shape")
                except wire.FrameError:
                    break               # framing lost
                except ValueError:
                    send({"ok": False, "error": "bad-request",
                          "message": "malformed JSON line"})
                    continue
                while self._wedged and not self._stop.is_set():
                    time.sleep(0.01)    # chaos: probes go unanswered
                if not self._dispatch(msg, body, send):
                    break
        except OSError:
            pass                        # EOF (ConnectionError) included
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, msg: dict, body, send) -> bool:
        op = msg.get("op", "infer")
        rid = msg.get("rid")
        if op == "ping":
            send({"rid": rid, "ok": True, "pong": True,
                  "replica": self.replica_id})
        elif op == "infer":
            self._infer(msg, body, send)
        elif op == "deploy":
            # Off-thread: a long compile must not block probe replies on
            # this connection (a false hang-kill mid-deploy would defeat
            # the rolling deploy's N−1 capacity guarantee).
            threading.Thread(target=self._deploy, args=(msg, send),
                             daemon=True).start()
        elif op == "stats":
            send({"rid": rid, "ok": True, "stats": self._stats()})
        elif op == "chaos" and self.config.allow_chaos:
            self._wedged = bool(msg.get("wedged", True))
            send({"rid": rid, "ok": True, "wedged": self._wedged})
        elif op == "shutdown":
            send({"rid": rid, "ok": True, "bye": True})
            self._stop.set()
            return False
        else:
            send({"rid": rid, "ok": False, "error": "unknown-op",
                  "message": f"unknown op {op!r}"})
        return True

    # -- ops ------------------------------------------------------------

    def _deploy(self, msg: dict, send) -> None:
        from .registry import SwapValidationError
        rid = msg.get("rid")
        name, version = msg.get("name"), msg.get("version")
        if not name or not version:
            send({"rid": rid, "ok": False, "error": "bad-request",
                  "message": "deploy needs name and version"})
            return
        try:
            with self._deploy_lock:
                report = self.registry.deploy(
                    name, version, checkpoint=msg.get("checkpoint"),
                    artifact=msg.get("artifact"))
                if self.config.engine_delay_ms > 0:
                    _, active = self.registry.resolve(name)
                    active.runner.engine = active.engine = _DelayedEngine(
                        active.engine, self.config.engine_delay_ms / 1e3)
        except Exception as exc:  # noqa: BLE001 - answer, don't die
            kind = ("swap-rejected" if isinstance(exc, SwapValidationError)
                    else "deploy-failed")
            send({"rid": rid, "ok": False, "error": kind,
                  "message": f"{type(exc).__name__}: {exc}"})
            return
        send({"rid": rid, "ok": True, "swap": report.as_dict()})

    def _infer(self, msg: dict, body, send) -> None:
        from ..infer.batcher import DeadlineExpired
        from .registry import NoSuchModelError
        rid = msg.get("rid")
        ref = msg.get("model")
        if not ref or body is None:
            send({"rid": rid, "ok": False, "error": "bad-request",
                  "message": "infer needs model and an input_shape body"})
            return
        start = time.monotonic()
        try:
            _, version = self.registry.resolve(ref)
        except NoSuchModelError as exc:
            send({"rid": rid, "ok": False, "error": "no-such-model",
                  "message": str(exc.args[0])})
            return
        sample = wire.unpack(msg["input_shape"], body)
        refused = wire.refuse_sample(sample, version.engine.sample_shape,
                                     version.ref)
        if refused is not None:
            send({"rid": rid, "ok": False, **refused})
            return
        deadline_ms = msg.get("deadline_ms")
        deadline = (None if deadline_ms is None
                    else start + float(deadline_ms) / 1e3)
        try:
            ticket = version.runner.submit(sample, deadline=deadline)
        except RuntimeError as exc:     # runner closed (shutdown race)
            self.metrics.incr("errors")
            send({"rid": rid, "ok": False, "error": "replica-fault",
                  "message": str(exc)})
            return

        def resolved(t) -> None:
            if t._error is not None:
                if isinstance(t._error, DeadlineExpired):
                    self.metrics.incr("expired")
                    send({"rid": rid, "ok": False, "error": "expired",
                          "message": str(t._error)})
                else:
                    self.metrics.incr("errors")
                    send({"rid": rid, "ok": False, "error": "replica-fault",
                          "message": f"{type(t._error).__name__}: "
                                     f"{t._error}"})
                return
            stages = t.stages_ms(version.runner.clock.monotonic())
            latency_ms = (time.monotonic() - start) * 1e3
            self.metrics.record_completion(version.ref, latency_ms, **stages)
            shape, out = wire.pack(t._value)
            send({"rid": rid, "ok": True, "model": version.ref,
                  "output_shape": shape, **stages,
                  "latency_ms": round(latency_ms, 3),
                  "replica": self.replica_id}, out)

        ticket.add_done_callback(resolved)

    def _stats(self) -> dict:
        return {
            "replica": self.replica_id,
            "pid": os.getpid(),
            "counters": dict(self.metrics.counters),
            "latency": self.metrics.snapshot()["latency"],
            "latency_samples": self.metrics.latency_samples(),
            "models": {name: info["active"]
                       for name, info in self.registry.models().items()},
        }


def _replica_main(replica_id: int, socket_path: str, heartbeats,
                  config: ReplicaConfig) -> None:
    """Process entry point: heartbeat thread + threaded socket service."""
    service = _ReplicaService(replica_id, config)

    def beat() -> None:
        while not service._stop.is_set():
            heartbeats[replica_id] = time.monotonic()
            service._stop.wait(HEARTBEAT_S)

    threading.Thread(target=beat, daemon=True,
                     name=f"repro-replica-{replica_id}-heartbeat").start()
    service.serve(socket_path)


# ---------------------------------------------------------------------------
# parent-side process management
# ---------------------------------------------------------------------------


class ReplicaHandle:
    """Parent-side view of one replica seat (survives respawns)."""

    def __init__(self, replica_id: int):
        self.replica_id = replica_id
        self.generation = 0
        self.proc: mp.process.BaseProcess | None = None
        self.socket_path: Path | None = None
        self.pid_path: Path | None = None
        self.kill_reason: str | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class ReplicaSet:
    """Spawns, watches, SIGKILLs, and respawns the replica processes.

    Pure process lifecycle — routing and request state live in
    :class:`~repro.serve.router.ReplicaRouter`. The heartbeat watchdog
    funnels freezes into process death (SIGKILL), which the router
    observes as EOF on the replica socket; :meth:`respawn` enforces the
    set-wide bounded respawn budget with deterministic
    :class:`~repro.resilience.retry.RetryPolicy` backoff.
    """

    def __init__(self, config: ReplicaConfig | None = None, *,
                 on_event=None):
        self.config = config or ReplicaConfig()
        if self.config.replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.on_event = on_event
        self.events: list[WorkerEvent] = []
        self.respawns_used = 0
        self._retry = self.config.retry_policy()
        self._lock = threading.Lock()
        self._closing = False
        reaper.sweep_orphans()          # reclaim a previous run's leavings
        if self.config.socket_dir is None:
            self._dir = Path(tempfile.mkdtemp(prefix="repro-replicas-"))
            self._own_dir = True
        else:
            self._dir = Path(self.config.socket_dir)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._own_dir = False
        reaper.register_path(self._dir)
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._heartbeats = self._ctx.Array("d", self.config.replicas,
                                           lock=False)
        self.handles = [ReplicaHandle(i) for i in range(self.config.replicas)]
        for handle in self.handles:
            self._spawn(handle)
        self._watchdog_halt = threading.Event()
        self._watchdog = threading.Thread(target=self._watch, daemon=True,
                                          name="repro-replica-watchdog")
        self._watchdog.start()

    # -- events ---------------------------------------------------------

    def emit(self, kind: str, replica_id: int, *, attempt: int = 0,
             detail: str = "") -> None:
        event = WorkerEvent(kind=kind, worker_id=replica_id,
                            attempt=attempt, detail=detail)
        self.events.append(event)
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:  # noqa: BLE001 - observer, not ours
                pass

    # -- spawning -------------------------------------------------------

    def _seat_paths(self, handle: ReplicaHandle) -> tuple[Path, Path]:
        stem = f"r{handle.replica_id}.{handle.generation}"
        return self._dir / f"{stem}.sock", self._dir / f"{stem}.pid"

    def _spawn(self, handle: ReplicaHandle) -> None:
        handle.generation += 1
        handle.kill_reason = None
        sock, pid_file = self._seat_paths(handle)
        reaper.register_path(sock)
        reaper.register_path(pid_file)
        handle.socket_path, handle.pid_path = sock, pid_file
        self._heartbeats[handle.replica_id] = time.monotonic()
        handle.proc = self._ctx.Process(
            target=_replica_main,
            args=(handle.replica_id, str(sock), self._heartbeats,
                  self.config),
            daemon=True, name=f"repro-replica-{handle.replica_id}")
        handle.proc.start()
        pid_file.write_text(str(handle.proc.pid))

    def _scrap_seat(self, handle: ReplicaHandle) -> None:
        """Remove (and unledger) one incarnation's socket + pid file."""
        for path in (handle.socket_path, handle.pid_path):
            if path is None:
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            reaper.unregister_path(path)

    # -- supervision ----------------------------------------------------

    def _watch(self) -> None:
        while not self._watchdog_halt.wait(HEARTBEAT_S):
            now = time.monotonic()
            for handle in self.handles:
                if not handle.alive:
                    continue
                age = now - self._heartbeats[handle.replica_id]
                if age > STALE_AFTER_S:
                    self.kill(handle.replica_id,
                              reason=f"heartbeat stale for {age:.2f}s "
                                     f"(limit {STALE_AFTER_S}s)",
                              kind="stale")

    def kill(self, replica_id: int, reason: str, kind: str = "hang") -> None:
        """SIGKILL one replica; the router sees EOF and takes over."""
        handle = self.handles[replica_id]
        if handle.kill_reason is None:
            handle.kill_reason = reason
        self.emit(kind, replica_id, detail=reason)
        if handle.proc is not None and handle.proc.is_alive():
            handle.proc.kill()

    def respawn(self, replica_id: int) -> bool:
        """Replace a dead replica, within the set-wide budget.

        Blocking (RetryPolicy backoff sleep + process start) — callers on
        an event loop run it via ``asyncio.to_thread``. Returns False
        once the budget is spent; the caller is expected to degrade.
        """
        handle = self.handles[replica_id]
        with self._lock:
            if self._closing:
                return False
            if self.respawns_used >= self.config.max_respawns:
                self.emit("degrade", replica_id, attempt=self.respawns_used,
                          detail="replica respawn budget exhausted "
                                 f"({self.config.max_respawns})")
                return False
            attempt = self.respawns_used
            self.respawns_used += 1
        time.sleep(self._retry.delay(attempt))
        with self._lock:
            if self._closing:
                return False
            if handle.proc is not None:
                handle.proc.join(timeout=5)
            self._scrap_seat(handle)
            self._spawn(handle)
            handle.restarts += 1
        self.emit("respawn", replica_id, attempt=attempt + 1,
                  detail=f"generation {handle.generation} "
                         f"(reason: {handle.kill_reason})")
        return True

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self._watchdog_halt.set()
        self._watchdog.join(timeout=5)
        for handle in self.handles:
            if handle.proc is not None and handle.proc.is_alive():
                handle.proc.kill()
            if handle.proc is not None:
                handle.proc.join(timeout=5)
            self._scrap_seat(handle)
        if self._own_dir:
            try:
                self._dir.rmdir()
            except OSError:
                pass
        reaper.unregister_path(self._dir)

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
