"""Micro-batching: coalesce single-sample requests into engine batches.

Single-sample inference wastes most of a numpy matmul's throughput. The
:class:`BatchRunner` owns a worker thread that drains a queue of pending
requests, groups up to ``max_batch`` samples, runs them through the
compiled engine as one batch, and scatters the per-sample results back
to their tickets.

A batch opens with its first request and closes when its arrivals stop:
it holds ``max_batch`` samples, or no request has arrived for one *idle
gap* (``max_wait / 10``), or ``max_wait`` seconds have passed since the
first request, whichever comes first. A burst of requests microseconds
apart still forms one batch, while a lone request no longer sits out the
whole window waiting for stragglers that never come.

All waiting goes through an injectable :class:`repro.clock.Clock`
(``clock=``), so the window, the idle gap and request deadlines are
testable on a :class:`repro.clock.FakeClock` with no wall-clock sleeps;
the serving layer (:mod:`repro.serve`) additionally retunes ``max_wait``
(and with it the idle gap) between batches through the ``on_batch`` hook.

A submission may carry an absolute *deadline* (seconds on the runner's
clock axis). A ticket whose deadline has passed while it sat in the
queue is evicted during batch formation — failed with
:class:`DeadlineExpired` and counted in ``stats["expired"]`` — *before*
the engine runs, so an already-dead request never wastes engine time.

Typical use::

    with BatchRunner(engine, max_batch=32, max_wait=0.002) as runner:
        ticket = runner.submit(sample)        # from any thread
        probs = ticket.result()               # blocks until ready
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from ..clock import SYSTEM_CLOCK, Clock

__all__ = ["InferenceTicket", "TicketCancelled", "DeadlineExpired",
           "BatchRunner"]

_STOP = object()


class TicketCancelled(RuntimeError):
    """The ticket was cancelled before its batch ran."""


class DeadlineExpired(TimeoutError):
    """The ticket's deadline passed before its batch could run."""


class InferenceTicket:
    """Handle to one submitted sample; resolves to its output row.

    A ticket resolves exactly once — to a value, an error, or (via
    :meth:`cancel`) a :class:`TicketCancelled`. Cancelling a ticket whose
    batch has not run yet also tells the worker to drop the sample, so a
    caller that times out does not leave an unresolved ticket (or wasted
    compute) behind. ``deadline`` (absolute clock seconds, or None) is
    set by :meth:`BatchRunner.submit` and read by the batch-formation
    loop to evict expired work. ``submitted``, ``started`` and
    ``finished`` are the runner-clock times of the submit, of the start
    of the batch that ran the ticket and of that batch's ``engine.run``
    returning (None until they happen); see :attr:`queue_wait_ms` and
    :attr:`engine_ms`.
    """

    __slots__ = ("_event", "_lock", "_value", "_error", "_callbacks",
                 "deadline", "submitted", "started", "finished")

    def __init__(self, deadline: float | None = None,
                 submitted: float | None = None):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._value = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        self.deadline = deadline
        self.submitted = submitted
        self.started: float | None = None
        self.finished: float | None = None

    @property
    def queue_wait_ms(self) -> float | None:
        """Milliseconds from submit to the start of this ticket's batch,
        or None when no batch started it."""
        if self.started is None or self.submitted is None:
            return None
        return (self.started - self.submitted) * 1e3

    @property
    def engine_ms(self) -> float | None:
        """Milliseconds from the start of this ticket's batch to its
        ``engine.run`` returning, or None when no batch ran it."""
        if self.started is None or self.finished is None:
            return None
        return (self.finished - self.started) * 1e3

    def stages_ms(self, resumed: float) -> dict:
        """Where a served ticket's time went, in milliseconds:
        ``queue_wait_ms``, ``engine_ms``, and ``return_ms`` from its
        batch's ``engine.run`` returning to ``resumed``, the runner-clock
        time at which the caller went on with the result. Each is None
        when that stage did not happen."""
        return {"queue_wait_ms": self.queue_wait_ms,
                "engine_ms": self.engine_ms,
                "return_ms": (None if self.finished is None
                              else (resumed - self.finished) * 1e3)}

    def done(self) -> bool:
        return self._event.is_set()

    def cancelled(self) -> bool:
        return isinstance(self._error, TicketCancelled)

    def result(self, timeout: float | None = None, *,
               cancel_on_timeout: bool = False) -> np.ndarray:
        """Block for the output row.

        With ``cancel_on_timeout=True`` a timeout also :meth:`cancel`\\ s
        the ticket, so the caller walks away clean instead of leaking a
        pending entry; if the batch won the race and completed anyway,
        the value is returned instead of raising.
        """
        if not self._event.wait(timeout):
            if not cancel_on_timeout or self.cancel():
                raise TimeoutError("inference result not ready")
        if self._error is not None:
            raise self._error
        return self._value

    def cancel(self) -> bool:
        """Resolve the ticket as cancelled; False if it already resolved."""
        return self._fail(TicketCancelled("inference request cancelled"))

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` once resolved (immediately if already done).

        Callbacks fire on the resolving thread (usually the batcher
        worker); exceptions they raise are swallowed — a misbehaving
        observer must not take the batch loop down with it.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        self._invoke(fn)

    def _invoke(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - observer errors are not ours
            pass

    def _resolve(self, value, error) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for fn in callbacks:
            self._invoke(fn)
        return True

    def _complete(self, value: np.ndarray) -> bool:
        return self._resolve(value, None)

    def _fail(self, error: BaseException) -> bool:
        return self._resolve(None, error)


class BatchRunner:
    """Daemon worker that micro-batches submissions into ``engine.run``.

    Engine exceptions are contained per batch (forwarded to the affected
    tickets only). Should the worker thread itself die of an unexpected
    error, every ticket it was holding is failed — no ticket ever hangs —
    and the next :meth:`submit` transparently restarts a fresh worker
    (counted in ``stats["restarts"]``), mirroring the respawn treatment
    of the process pool supervisor. Callers bound their own wait with
    ``ticket.result(timeout=...)``; a thread cannot be killed from
    outside, so a wedged ``engine.run`` surfaces as those timeouts.

    ``on_batch(samples, outputs)`` (optional) observes every successful
    batch — the serving layer uses it for batch-size metrics, adaptive
    window control, and the bitwise replay trace of its equivalence tests.
    An observer that raises is contained: the fault is counted in
    ``stats["observer_faults"]``, reported through ``on_observer_error``
    (if set), and the worker keeps serving — by the time the observer
    runs, every ticket in the batch has already resolved, so the hook can
    never cost a caller its result.
    """

    def __init__(self, engine, max_batch: int | None = None,
                 max_wait: float = 0.002, *, clock: Clock = SYSTEM_CLOCK,
                 on_batch=None, on_observer_error=None):
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.engine = engine
        self.max_batch = int(engine.max_batch if max_batch is None
                             else max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.max_wait = float(max_wait)
        self.clock = clock
        self.on_batch = on_batch
        self.on_observer_error = on_observer_error
        self.stats = {"samples": 0, "batches": 0, "largest_batch": 0,
                      "restarts": 0, "cancelled": 0, "expired": 0,
                      "observer_faults": 0, "closed_full": 0,
                      "closed_idle": 0, "closed_window": 0}
        # queue.Queue, not SimpleQueue: on CPython 3.11 a SimpleQueue
        # get(timeout=...) racing a put() can block past its timeout until
        # the next put(), which held whole batches for the 30 s request
        # timeout when no other request arrived.
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._worker = self._start_worker()

    def _start_worker(self) -> threading.Thread:
        worker = threading.Thread(target=self._loop, daemon=True,
                                  name="repro-infer-batcher")
        worker.start()
        return worker

    def _ensure_worker(self) -> None:
        """Respawn the worker if it died; submissions must never hang."""
        with self._lock:
            if not self._worker.is_alive() and not self._closed:
                self.stats["restarts"] += 1
                self._worker = self._start_worker()

    @property
    def queued(self) -> int:
        """Submissions waiting in the queue (not yet collected)."""
        return self._queue.qsize()

    @property
    def worker_alive(self) -> bool:
        return self._worker.is_alive()

    def submit(self, sample, *,
               deadline: float | None = None) -> InferenceTicket:
        """Queue one sample (no batch axis); returns its ticket.

        ``deadline`` is absolute seconds on this runner's clock axis
        (``clock.monotonic() + budget``); an expired ticket is evicted
        before its batch forms instead of burning engine time.
        """
        if self._closed:
            raise RuntimeError("BatchRunner is closed")
        self._ensure_worker()
        sample = np.asarray(sample, dtype=np.float32)
        ticket = InferenceTicket(deadline, self.clock.monotonic())
        self._queue.put((sample, ticket))
        if self._closed:
            # Lost the race against close(): the worker may already have
            # consumed _STOP and exited, stranding this ticket behind it.
            # Resolve it here — submit-after-close must never hang.
            if ticket._fail(RuntimeError("BatchRunner is closed")):
                raise RuntimeError("BatchRunner is closed")
        return ticket

    def _collect(self) -> list:
        """Block for the first request, then coalesce until the batch closes.

        The batch closes on the first of: ``max_batch`` samples; no new
        request for one idle gap (``max_wait / 10``); ``max_wait`` since
        its first request. The reason is counted in ``stats`` as
        ``closed_full`` / ``closed_idle`` / ``closed_window``.

        Cancelled tickets are dropped on the floor here (counted in
        ``stats["cancelled"]``), and tickets whose own deadline has
        passed are evicted — failed with :class:`DeadlineExpired` and
        counted in ``stats["expired"]`` — so the batch that reaches the
        engine holds only work somebody is still waiting for.
        """
        first = self._queue.get()
        if first is _STOP:
            return []
        pending = [first]
        deadline = self.clock.monotonic() + self.max_wait
        idle_gap = self.max_wait / 10
        closed = "closed_full"
        while len(pending) < self.max_batch:
            remaining = deadline - self.clock.monotonic()
            if remaining <= 0:
                closed = "closed_window"
                break
            wait = min(idle_gap, remaining)
            try:
                item = self.clock.get(self._queue, wait)
            except queue.Empty:
                closed = "closed_idle" if wait < remaining else "closed_window"
                break
            if item is _STOP:
                self._queue.put(_STOP)   # re-arm for the outer loop
                closed = None
                break
            pending.append(item)
        if closed is not None:
            self.stats[closed] += 1
        now = self.clock.monotonic()
        live = []
        for sample, ticket in pending:
            if ticket.done():
                self.stats["cancelled"] += 1
            elif ticket.deadline is not None and ticket.deadline <= now:
                if ticket._fail(DeadlineExpired(
                        "request deadline passed while queued for a batch")):
                    self.stats["expired"] += 1
                else:
                    self.stats["cancelled"] += 1
            else:
                live.append((sample, ticket))
        return live

    def _loop(self) -> None:
        pending: list = []
        try:
            while True:
                pending = self._collect()
                if not pending:
                    # Either the _STOP sentinel (close() sets _closed before
                    # enqueueing it) or a batch whose every ticket was
                    # cancelled while it coalesced — only the former ends
                    # the worker.
                    if self._closed:
                        return
                    continue
                samples = [s for s, _ in pending]
                tickets = [t for _, t in pending]
                started = self.clock.monotonic()
                for ticket in tickets:
                    ticket.started = started
                try:
                    batch = np.stack(samples)
                    outputs = self.engine.run(batch)
                except BaseException as exc:  # noqa: BLE001 - to callers
                    for ticket in tickets:
                        ticket._fail(exc)
                    continue
                finished = self.clock.monotonic()
                for ticket in tickets:
                    ticket.finished = finished
                self.stats["samples"] += len(tickets)
                self.stats["batches"] += 1
                self.stats["largest_batch"] = max(self.stats["largest_batch"],
                                                  len(tickets))
                for ticket, row in zip(tickets, outputs):
                    if not ticket._complete(np.array(row, copy=True)):
                        self.stats["cancelled"] += 1
                if self.on_batch is not None:
                    try:
                        self.on_batch(batch, outputs)
                    except Exception as exc:  # noqa: BLE001 - observer's bug
                        self.stats["observer_faults"] += 1
                        if self.on_observer_error is not None:
                            try:
                                self.on_observer_error(exc)
                            except Exception:  # noqa: BLE001 - both hooks bad
                                pass
                pending = []
        except BaseException as exc:  # noqa: BLE001 - worker is dying
            # Something escaped the per-batch containment (a malformed
            # queue item, an allocator failure in _collect). This worker
            # is done for — but no ticket may be left hanging: fail the
            # current batch and everything still queued, then exit so
            # the next submit() can respawn a clean worker.
            self._fail_stranded(pending, exc)

    def _fail_stranded(self, pending: list, exc: BaseException) -> None:
        def fail(item) -> None:
            if (isinstance(item, tuple) and len(item) == 2
                    and isinstance(item[1], InferenceTicket)):
                item[1]._fail(exc)

        for item in pending:
            fail(item)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                self._queue.put(_STOP)   # preserve the shutdown signal
                return
            fail(item)

    def close(self, timeout: float | None = 5.0) -> None:
        """Stop accepting work, join the worker, resolve any stragglers."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        self._worker.join(timeout)
        # Anything still queued (racing submits, items behind _STOP) gets
        # an explicit failure instead of an eternally pending ticket.
        self._fail_stranded([], RuntimeError("BatchRunner is closed"))

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
