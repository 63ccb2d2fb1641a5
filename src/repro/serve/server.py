"""Asyncio inference server: the front door.

Wire protocol — one frame per request, one frame back (see
:mod:`.wire`). A frame is one JSON header on a ``\\n``-terminated line,
optionally followed by a raw little-endian float32 body whose shape the
header names:

* ``{"op": "infer", "model": "name[@version]", "input_shape": [3, 16,
  16], "id": x}`` + ``prod(shape) * 4`` body bytes (``op`` may be
  omitted; ``infer`` is the default) → ``{"id": x, "ok": true, "model":
  "name@vN", "output_shape": [10], "latency_ms": ..., "served_by":
  "batch" | "eager"}`` + the output's body bytes. A legacy request that
  carries ``"input": [...]`` (a nested JSON list) instead of a body is
  answered in pure JSON with ``"output": [...]`` and no body. Rejections
  are explicit and immediate: ``{"id": x, "ok": false, "error":
  "overloaded", "reason": "queue-full" | "slo"}``; an input whose shape
  is not the model's sample shape, or that holds NaN/Inf (``"reason":
  "non-finite"``), is a ``bad-request`` and never reaches the batcher. A malformed ``input_shape`` or a body over
  ``max_line_bytes`` is answered ``bad-request`` and the connection is
  closed: its framing is lost.
* ``{"op": "stats"}`` → the full :class:`~.metrics.ServerMetrics`
  snapshot plus per-model registry state (the ``/stats`` endpoint).
* ``{"op": "swap", "name": ..., "version": ..., "checkpoint": path}`` →
  hot-swap through :meth:`~.registry.ModelRegistry.deploy`; traffic keeps
  flowing while the replacement compiles and validates off-loop.
* ``{"op": "models"}``, ``{"op": "ping"}`` — introspection.

Each connection is served sequentially (one in-flight request per
connection; open more connections for concurrency — the closed-loop load
model). Admission control runs *before* any compute or queueing, so an
overloaded server answers rejections in event-loop time, not model time.

Request lifecycle (PR 7): an ``infer`` request may carry ``deadline_ms``
(its remaining latency budget). A request that cannot meet its deadline
is shed at admission (``overloaded``/``deadline``); one that expires
while queued is evicted before its batch runs and answered with
``error: "expired"`` — either way no engine time is spent on an answer
nobody will read. ``aclose(drain=True)`` (and SIGTERM under ``repro
serve``) drains gracefully: the listening socket closes, new requests
get an explicit ``error: "draining"``, and every already-accepted
request completes before the loop shuts down. Requests carrying an
idempotency key (``rid``) are answered from a bounded replay cache on
retry (a binary response with its body), so a reconnecting client never
double-counts work.

Fault containment mirrors the PR 5 supervisor: a request whose batched
ticket fails is retried on the current engine (covers the swap race,
where the old runner closed under it) and then falls back to a serial
eager forward; repeated faults mark the line degraded (all-eager) rather
than dropping accepted requests. See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..clock import SYSTEM_CLOCK, Clock
from ..infer.batcher import DeadlineExpired
from . import wire
from .metrics import ServerMetrics
from .registry import ModelRegistry, NoSuchModelError, SwapValidationError

__all__ = ["ServeConfig", "InferenceServer", "ServerThread"]

REPLAY_CACHE_SIZE = 1024        # idempotent-rid responses kept
_STAGES = ("queue_wait_ms", "engine_ms", "return_ms")   # of a batched answer


@dataclass(frozen=True)
class ServeConfig:
    """Socket + per-request limits of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 → ephemeral, see server.port
    request_timeout_s: float = 30.0     # ticket wait before cancel
    max_line_bytes: int = 8 * 2 ** 20   # header line and body limit
    drain_grace_s: float = 30.0         # in-flight budget for drain=True


class InferenceServer:
    """Routes framed requests into a :class:`~.registry.ModelRegistry`."""

    def __init__(self, registry: ModelRegistry,
                 config: ServeConfig | None = None, *,
                 metrics: ServerMetrics | None = None,
                 clock: Clock = SYSTEM_CLOCK,
                 router=None):
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics = metrics or ServerMetrics()
        self.clock = clock
        # Replicated tier (optional): a ReplicaRouter dispatches accepted
        # requests across worker processes; the local registry stays as
        # the validated fallback path (and the degrade target).
        self.router = router
        if router is not None and router.metrics is None:
            router.metrics = self.metrics
        if getattr(registry, "metrics", None) is None:
            registry.metrics = self.metrics
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        # rid -> (response header, response body or None)
        self._replay: OrderedDict[str, tuple] = OrderedDict()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._idle = asyncio.Event()
        self._idle.set()
        if self.router is not None:
            # Replicas must be connected and deployed before the socket
            # opens: the frontend never accepts traffic it cannot serve.
            await self.router.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port,
            limit=self.config.max_line_bytes)
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self, drain: bool = False,
                     grace: float | None = None) -> None:
        """Stop the server; with ``drain=True``, finish accepted work first.

        Drain order: the listening socket closes (no new connections),
        new requests on live connections are answered ``draining``, and
        the loop waits — up to ``grace`` seconds (default: the config's
        ``drain_grace_s``) — until every already-accepted request has
        been answered. Only then are the connections torn down, so a
        drain drops zero accepted requests.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            self._draining = True
            if self._inflight > 0 and self._idle is not None:
                grace = self.config.drain_grace_s if grace is None else grace
                try:
                    await asyncio.wait_for(self._idle.wait(), grace)
                except asyncio.TimeoutError:
                    pass        # grace spent; the rest is cancelled below
        for writer in list(self._writers):
            writer.close()
        if self.router is not None:
            # After the drain wait: accepted requests have been answered
            # (replicated or locally), so tearing the replicas down now
            # drops nothing.
            await self.router.aclose()

    def run_forever(self) -> None:
        """Blocking entry point used by ``repro serve``.

        SIGTERM and SIGINT trigger a graceful drain (see :meth:`aclose`)
        instead of killing in-flight requests.
        """
        async def main():
            await self.start()
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, ValueError, RuntimeError):
                    pass        # non-main thread / exotic platform
            print(f"repro.serve listening on "
                  f"{self.config.host}:{self.port}")
            await stop.wait()
            print(f"repro.serve draining ({self._inflight} in flight, "
                  f"grace {self.config.drain_grace_s:.0f}s)")
            await self.aclose(drain=True)
            print("repro.serve drained; bye")
        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass

    # -- connection loop ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    # readuntil, not readline: on an over-limit line
                    # readline consumes an unpredictable amount of the
                    # buffer before raising, while readuntil leaves it
                    # intact — which is what lets _discard_oversized
                    # resynchronise on the newline.
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    if not exc.partial:
                        break               # clean EOF
                    line = exc.partial      # final request, no newline
                except asyncio.LimitOverrunError:
                    # The line overran max_line_bytes. Consume the rest
                    # of it (the client may still be writing; reading is
                    # what unblocks it), answer explicitly, and keep the
                    # connection alive — an oversized request is the
                    # client's bug, not a reason to hang up mid-stream.
                    self.metrics.incr("received")
                    recovered = await self._discard_oversized(reader)
                    await self._send(writer, {
                        "ok": False, "error": "bad-request",
                        "reason": "line-too-long",
                        "message": (f"request line exceeds "
                                    f"{self.config.max_line_bytes} bytes")})
                    if not recovered:
                        break
                    continue
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                self.metrics.incr("received")
                try:
                    msg = wire.parse(line)
                except ValueError as exc:
                    await self._send(writer, {
                        "ok": False, "error": "bad-request",
                        "message": str(exc)})
                    continue
                try:
                    size = wire.body_size(msg, "input_shape",
                                          self.config.max_line_bytes)
                except wire.FrameError as exc:
                    # The body's length is unknown or refused, so the
                    # next frame cannot be found: answer and hang up.
                    await self._send(writer, {
                        "id": msg.get("id"), "ok": False,
                        "error": "bad-request", "reason": "bad-frame",
                        "message": str(exc)})
                    break
                # A body cut short by EOF raises IncompleteReadError
                # here, before anything was admitted or queued.
                body = None if size is None else \
                    await reader.readexactly(size)
                response, out = await self._dispatch(msg, body)
                await self._send(writer, response, out)
                if response.get("bye"):
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler mid-read. Absorb it
            # and return normally: a task that finishes *cancelled* makes
            # the stream protocol's completion callback raise when it
            # polls task.exception() during loop teardown.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _discard_oversized(self, reader: asyncio.StreamReader) -> bool:
        """Eat the remainder of an over-limit line; True once its newline
        is reached (the connection can then resync on the next request).

        ``readuntil`` raises ``LimitOverrunError`` without consuming the
        buffer, in two flavours: separator *found* past the limit
        (``consumed`` = its index — dropping that many bytes puts the
        newline next) and separator *not yet seen* (``consumed`` = the
        searched length — drop it and keep reading). Either way the
        first ``consumed`` bytes are guaranteed part of the bad line.
        """
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as exc:
                try:
                    await reader.readexactly(exc.consumed)
                    if await reader.readexactly(1) == b"\n":
                        return True
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return False
            except (asyncio.IncompleteReadError, ConnectionResetError,
                    ValueError):
                return False

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: dict, body=None) -> None:
        writer.write(wire.encode(payload, body))
        await writer.drain()

    async def _dispatch(self, msg: dict, body) -> tuple[dict, object]:
        """Answer one request: ``(response header, response body)``."""
        op = msg.get("op", "infer")
        rid = msg.get("id")
        try:
            if op == "infer":
                return await self._infer(msg, body)
            return await self._control(op, msg), None
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self.metrics.incr("errors")
            return {"id": rid, "ok": False, "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}, None

    async def _control(self, op: str, msg: dict) -> dict:
        rid = msg.get("id")
        if op == "stats":
            payload = self.stats()
            if self.router is not None:
                payload["replicas"] = await self.router.fleet_snapshot()
            return {"id": rid, "ok": True, "stats": payload}
        if op == "models":
            return {"id": rid, "ok": True, "models": self.registry.models()}
        if op == "ping":
            return {"id": rid, "ok": True, "pong": True}
        if op == "swap":
            return await self._swap(msg)
        return {"id": rid, "ok": False, "error": "unknown-op",
                "message": f"unknown op {op!r}"}

    # -- ops ------------------------------------------------------------

    def stats(self) -> dict:
        lifecycle = {"draining": self._draining, "inflight": self._inflight}
        if self.router is not None:
            lifecycle["replicas_degraded"] = self.router.degraded
            lifecycle["stop_reason"] = self.router.stop_reason
        return self.metrics.snapshot(extra={
            "models": self.registry.models(),
            "lifecycle": lifecycle})

    async def _swap(self, msg: dict) -> dict:
        rid = msg.get("id")
        if self._draining:
            return {"id": rid, "ok": False, "error": "draining",
                    "message": "server is draining; no new deployments"}
        name, version = msg.get("name"), msg.get("version")
        checkpoint = msg.get("checkpoint")
        if not name or not version or not checkpoint:
            return {"id": rid, "ok": False, "error": "bad-request",
                    "message": "swap needs name, version, checkpoint"}
        rolling = None
        if self.router is not None and self.router.usable:
            # Rolling deploy: one replica at a time through its own
            # compile+probe-validate gate. A rejection aborts with every
            # replica still on the old version — the local registry is
            # then never touched, so frontend and fleet stay consistent.
            rolling = await self.router.rolling_deploy(
                name, version, checkpoint=checkpoint)
            if not rolling.get("ok"):
                return {"id": rid, "ok": False, "error": "swap-rejected",
                        "message": rolling.get("message", ""),
                        "rolling": rolling}
        try:
            # Compile + validate off-loop so traffic keeps flowing.
            report = await asyncio.to_thread(
                self.registry.deploy, name, version, checkpoint=checkpoint)
        except SwapValidationError as exc:
            return {"id": rid, "ok": False, "error": "swap-rejected",
                    "message": str(exc), "rolling": rolling}
        self.metrics.incr("swaps")
        response = {"id": rid, "ok": True, "swap": report.as_dict()}
        if rolling is not None:
            response["rolling"] = rolling
        return response

    async def _infer(self, msg: dict, body) -> tuple[dict, object]:
        """One ``infer`` request: ``(response header, response body)``.

        A request with a ``body`` is answered with one; a legacy request
        (``input`` list) is answered in pure JSON, body ``None``.
        """
        rid = msg.get("id")
        if self._draining:
            self.metrics.record_rejection("draining")
            return {"id": rid, "ok": False, "error": "draining",
                    "message": "server is draining; no new requests"}, None
        idem = msg.get("rid")
        if idem is not None:
            cached = self._replay.get(idem)
            if cached is not None:
                # A retried idempotent request: answer from the cache so
                # the work (and every metric) is counted exactly once.
                self.metrics.incr("replayed")
                response, out = cached
                return {**response, "id": rid, "replayed": True}, out
        ref = msg.get("model")
        if not ref or (body is None and "input" not in msg):
            return {"id": rid, "ok": False, "error": "bad-request",
                    "message": "infer needs model and input"}, None
        deadline_ms = msg.get("deadline_ms")
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) \
                    or not isinstance(deadline_ms, (int, float)) \
                    or not deadline_ms > 0:
                return {"id": rid, "ok": False, "error": "bad-request",
                        "message": "deadline_ms must be a positive "
                                   "number"}, None
            deadline_ms = float(deadline_ms)
        try:
            line, version = self.registry.resolve(ref)
        except NoSuchModelError as exc:
            return {"id": rid, "ok": False, "error": "no-such-model",
                    "message": str(exc.args[0])}, None
        try:
            sample = (np.asarray(msg["input"], dtype=np.float32)
                      if body is None
                      else wire.unpack(msg["input_shape"], body))
        except (TypeError, ValueError) as exc:
            return {"id": rid, "ok": False, "error": "bad-request",
                    "message": f"input is not a float tensor: {exc}"}, None
        refused = wire.refuse_sample(sample, version.engine.sample_shape,
                                     version.ref)
        if refused is not None:
            # Never admitted: the batcher and the sample's good batch
            # neighbours never see it.
            return {"id": rid, "ok": False, **refused}, None
        admitted, reason = line.admission.try_admit(remaining_ms=deadline_ms)
        if not admitted:
            # The load-shedding fast path: no queueing, no compute.
            self.metrics.record_rejection(reason)
            return {"id": rid, "ok": False, "error": "overloaded",
                    "reason": reason}, None
        start = self.clock.monotonic()
        deadline = None if deadline_ms is None else start + deadline_ms / 1e3
        self._inflight += 1
        if self._idle is not None:
            self._idle.clear()
        try:
            routed = None
            if self.router is not None and self.router.usable:
                routed = await self._route_replicated(ref, sample, body,
                                                      deadline)
            if routed is None:
                routed = await self._run(line, version, sample, deadline)
            output, served_by, active_ref, stages = routed
            latency_ms = (self.clock.monotonic() - start) * 1e3
            self.metrics.record_completion(active_ref, latency_ms, **stages)
            response = {"id": rid, "ok": True, "model": active_ref,
                        "served_by": served_by,
                        "latency_ms": round(latency_ms, 3)}
            out = None
            if body is None:
                response["output"] = output.tolist()
            else:
                response["output_shape"], out = wire.pack(output)
            if idem is not None:
                self._remember(idem, response, out)
            return response, out
        except DeadlineExpired as exc:
            self.metrics.incr("expired")
            return {"id": rid, "ok": False, "error": "expired",
                    "message": str(exc)}, None
        except Exception as exc:  # noqa: BLE001 - answer, don't drop
            self.metrics.incr("errors")
            kind = ("bad-request" if isinstance(exc, ValueError)
                    else "timeout" if isinstance(exc, TimeoutError)
                    else "internal")
            return {"id": rid, "ok": False, "error": kind,
                    "message": f"{type(exc).__name__}: {exc}"}, None
        finally:
            line.admission.on_complete(
                (self.clock.monotonic() - start) * 1e3)
            self._inflight -= 1
            if self._inflight == 0 and self._idle is not None:
                self._idle.set()

    async def _route_replicated(self, ref: str, sample, body, deadline):
        """Dispatch one request to the replica tier.

        Returns ``(output, served_by, model_ref, stages)``, or
        ``None`` when the request should be served on the local
        in-process path instead (no routable replica, re-dispatch budget
        spent, replica-side engine fault, or the tier just degraded).
        Request and reply bodies are forwarded as bytes: ``output`` is a
        view of the replica's reply body, so the bytes the replica
        computed are the bytes the client reads. ``stages`` are the
        replica's own stage times (see :meth:`_run`).
        """
        from .router import ReplicasUnavailable
        if body is None:
            _, body = wire.pack(sample)
        try:
            reply, out = await self.router.dispatch_infer(
                ref, list(sample.shape), body, deadline)
        except ReplicasUnavailable:
            self.metrics.incr("replica_fallbacks")
            return None
        if reply.get("ok"):
            served_by = f"replica:{reply.get('replica', '?')}"
            return (wire.unpack(reply["output_shape"], out), served_by,
                    reply.get("model", ref),
                    {key: reply.get(key) for key in _STAGES})
        error = reply.get("error")
        if error == "expired":
            raise DeadlineExpired(
                reply.get("message", "deadline expired on replica"))
        if error == "bad-request":
            raise ValueError(reply.get("message", "bad request"))
        # replica-fault / no-such-model skew: the local path still owns a
        # validated copy of every line — answer there, never drop.
        self.metrics.incr("replica_fallbacks")
        return None

    def _remember(self, idem: str, response: dict, body) -> None:
        """Cache one successful response (and its body) under its
        idempotency key."""
        self._replay[idem] = (response, body)
        while len(self._replay) > REPLAY_CACHE_SIZE:
            self._replay.popitem(last=False)

    async def _run(self, line, version, sample, deadline=None):
        """Batched path with supervisor-style containment.

        Returns ``(output_row, served_by, model_ref, stages)``. ``stages``
        holds the batched answer's ``queue_wait_ms``, ``engine_ms`` and
        ``return_ms`` (:meth:`repro.infer.InferenceTicket.stages_ms`, the
        return hop ending when this coroutine resumes), and is empty when
        the eager path served it. Raises only
        when the request itself cannot be served — a client error from
        the eager path, a timeout, or an expired deadline; engine-side
        faults degrade, they do not drop.
        """
        if line.degraded:
            if deadline is not None and self.clock.monotonic() >= deadline:
                raise DeadlineExpired("request deadline passed before the "
                                      "eager path could run")
            out = await asyncio.to_thread(self.registry.eager_infer,
                                          line, version, sample)
            return out, "eager", version.ref, {}

        failure: BaseException | None = None
        for attempt in range(2):
            try:
                ticket = version.runner.submit(sample, deadline=deadline)
            except RuntimeError:
                # Runner closed under us (hot-swap race): re-resolve and
                # retry on whatever is active now.
                line, version = self.registry.resolve(version.name)
                continue
            outcome = await self._await_ticket(ticket, version.runner,
                                               deadline)
            if outcome is _EXPIRED:
                raise DeadlineExpired("request deadline passed while "
                                      "waiting for its batch")
            value, failure = outcome._value, outcome._error
            if failure is None:
                resumed = version.runner.clock.monotonic()
                return (value, "batch", version.ref,
                        outcome.stages_ms(resumed))
            if isinstance(failure, DeadlineExpired):
                # Evicted from the queue before its batch ran: final.
                raise failure
            if isinstance(failure, RuntimeError) and attempt == 0:
                # "BatchRunner is closed" surfaced through the ticket.
                line, version = self.registry.resolve(version.name)
                continue
            break

        # Batched path is faulty — serial eager fallback, then maybe
        # degrade the line. The sample's shape was checked before
        # admission, so this is a serving fault, not a bad request.
        try:
            out = await asyncio.to_thread(self.registry.eager_infer,
                                          line, version, sample)
        except Exception:
            if failure is not None:
                raise failure
            raise
        self.metrics.incr("fallbacks")
        self.registry.note_fallback(line, version)
        return out, "eager", version.ref, {}

    async def _await_ticket(self, ticket, runner, deadline=None):
        """Wait for a ticket; ``_EXPIRED`` when its deadline bound the wait.

        Raises :class:`TimeoutError` after ``request_timeout_s``, naming
        the stage the ticket was stuck in (see :func:`_ticket_stage`).
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def resolved(t):
            def finish():
                if not future.done():
                    future.set_result(t)
            loop.call_soon_threadsafe(finish)

        ticket.add_done_callback(resolved)
        timeout = self.config.request_timeout_s
        deadline_bound = False
        if deadline is not None:
            remaining = max(deadline - self.clock.monotonic(), 0.0)
            if remaining < timeout:
                timeout, deadline_bound = remaining, True
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            stage = _ticket_stage(ticket, runner)
            ticket.cancel()
            if deadline_bound:
                return _EXPIRED
            self.metrics.incr("cancelled")
            raise TimeoutError(
                f"inference exceeded {self.config.request_timeout_s:.1f}s "
                f"budget; ticket {stage}") from None


def _ticket_stage(ticket, runner) -> str:
    """Where a timed-out ticket was stuck: never batched, inside
    ``engine.run``, or resolved with its loop callback never run."""
    if ticket.done():
        return "resolved, but the loop callback never ran"
    worker = "alive" if runner.worker_alive else "dead"
    if ticket.started is None:
        return (f"never batched (runner queue holds {runner.queued}, "
                f"worker {worker})")
    since_ms = (runner.clock.monotonic() - ticket.started) * 1e3
    return f"in engine.run since +{since_ms:.1f} ms (worker {worker})"


_EXPIRED = object()


class ServerThread:
    """Run an :class:`InferenceServer` on a background event loop.

    Tests, drills, and the load generator use this to host a real socket
    server inside the current process::

        with ServerThread(registry, ServeConfig()) as srv:
            client = ServeClient("127.0.0.1", srv.port)
    """

    def __init__(self, registry: ModelRegistry,
                 config: ServeConfig | None = None, **server_kwargs):
        self.server = InferenceServer(registry, config, **server_kwargs)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-serve")

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.server.port is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def _main(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surface to starter
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.aclose())
            # Connection handlers parked on readline() survive loop.stop();
            # cancel and drain them so the loop closes without orphans.
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            self._loop.close()

    def drain(self, grace: float | None = None, timeout: float = 60.0) -> None:
        """Gracefully drain the hosted server from the calling thread.

        Blocks until every accepted request has been answered (or
        ``grace`` seconds passed); the event loop keeps running so the
        draining responses still flow — call :meth:`stop` afterwards.
        """
        if self._loop is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.aclose(drain=True, grace=grace), self._loop)
        future.result(timeout)

    def stop(self) -> None:
        if self._loop is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
