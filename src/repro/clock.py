"""Injectable time source for everything that batches, waits, or sheds.

Timing-sensitive components (:class:`repro.infer.BatchRunner`, the
adaptive batching window and admission controller in :mod:`repro.serve`)
never call :mod:`time` directly — they go through a :class:`Clock`. In
production that is :data:`SYSTEM_CLOCK` (a thin wrapper over
``time.monotonic`` / ``time.sleep`` / ``queue.get``); in tests it is a
:class:`FakeClock` whose time only moves when the test moves it, so
batching-window, deadline, and shedding behaviour are asserted *exactly*
instead of raced against the wall clock.

The protocol is three methods:

``monotonic()``
    Seconds on a monotonic axis (epoch is arbitrary).
``sleep(seconds)``
    Block for that long. The fake clock just advances itself.
``get(queue, timeout)``
    Pop one item from a queue, waiting at most ``timeout`` seconds, or
    raise :class:`queue.Empty`. This is the one *blocking* primitive the
    batching loop needs; routing it through the clock is what lets a fake
    clock expire a batching window deterministically — if the queue is
    empty the fake simply advances virtual time by ``timeout`` and raises.

On Linux, :class:`SystemClock`'s timed ``get`` is exact. A thread's timer
slack (50 µs by default) lets the kernel fire its timeouts that much
late, so a 50 µs batching idle gap would end after about 110 µs. The
first timed ``get`` on a thread therefore sets that thread's own slack to
1 ns (``prctl(PR_SET_TIMERSLACK)``), once per thread. This is a
per-thread process attribute; other threads keep their slack, and off
Linux, or if the call fails, nothing changes.
"""

from __future__ import annotations

import ctypes
import queue as _queue
import sys
import threading
import time as _time

__all__ = ["Clock", "SystemClock", "FakeClock", "SYSTEM_CLOCK"]


class Clock:
    """Protocol (and doc anchor) for injectable time sources."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def get(self, q, timeout: float):
        """Pop from ``q`` within ``timeout`` seconds or raise ``queue.Empty``."""
        raise NotImplementedError


_PR_SET_TIMERSLACK = 29
_EXACT_SLACK_NS = 1


def _timer_slack_setter():
    """``set(ns)`` for the calling thread's timer slack, or None where
    there is no ``prctl`` (off Linux, or no C library to call it from)."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.restype = ctypes.c_int
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    return lambda ns: prctl(_PR_SET_TIMERSLACK, ns, 0, 0, 0)


_set_timer_slack = _timer_slack_setter()
_exact_threads = threading.local()


class SystemClock(Clock):
    """The real thing: ``time.monotonic``, ``time.sleep``, blocking gets.

    A timed :meth:`get` returns when its timeout ends, not one timer slack
    later (see the module docstring).
    """

    def monotonic(self) -> float:
        return _time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)

    def get(self, q, timeout: float):
        if timeout <= 0:
            return q.get_nowait()
        if not getattr(_exact_threads, "set", False):
            _exact_threads.set = True
            if _set_timer_slack is not None:
                _set_timer_slack(_EXACT_SLACK_NS)
        return q.get(timeout=timeout)


class FakeClock(Clock):
    """Manual time for tests: it is whatever o'clock you say it is.

    ``advance``/``sleep`` move virtual time; ``get`` first tries a
    non-blocking pop and, when the queue is empty, *charges the full
    timeout* to virtual time before raising :class:`queue.Empty` — exactly
    what a real clock would have spent waiting on a quiet queue. Every
    mutation happens under a lock so a worker thread and the test driver
    can share one instance.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()
        self.slept: list[float] = []

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += seconds

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._now += max(float(seconds), 0.0)
            self.slept.append(float(seconds))

    def get(self, q, timeout: float):
        try:
            return q.get_nowait()
        except _queue.Empty:
            self.advance(max(float(timeout), 0.0))
            raise


SYSTEM_CLOCK = SystemClock()
