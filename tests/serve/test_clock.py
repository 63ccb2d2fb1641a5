"""The injectable time source: system and fake clocks agree on semantics."""

import ctypes
import queue
import sys
import threading

import pytest

from repro.clock import SYSTEM_CLOCK, FakeClock, SystemClock


class TestSystemClock:
    def test_monotonic_moves_forward(self):
        clock = SystemClock()
        assert clock.monotonic() <= clock.monotonic()

    def test_get_returns_queued_item(self):
        q = queue.SimpleQueue()
        q.put("x")
        assert SYSTEM_CLOCK.get(q, 1.0) == "x"

    def test_get_with_nonpositive_timeout_is_nonblocking(self):
        q = queue.SimpleQueue()
        with pytest.raises(queue.Empty):
            SYSTEM_CLOCK.get(q, 0.0)
        q.put("y")
        assert SYSTEM_CLOCK.get(q, -1.0) == "y"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="timer slack is a Linux thread attribute")
class TestExactWaits:
    """A timed ``SYSTEM_CLOCK.get`` sets its own thread's timer slack to
    1 ns, so the wait ends when its timeout does; other threads keep
    theirs."""

    PR_SET_TIMERSLACK, PR_GET_TIMERSLACK = 29, 30
    DEFAULT_SLACK_NS = 50_000

    def test_a_timed_get_makes_only_its_own_thread_exact(self):
        prctl = ctypes.CDLL(None).prctl
        prctl.restype = ctypes.c_int
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        slack = {}

        def read(key):
            slack[key] = prctl(self.PR_GET_TIMERSLACK, 0, 0, 0, 0)

        def waiter():
            read("waiter before")
            with pytest.raises(queue.Empty):
                SYSTEM_CLOCK.get(queue.Queue(), 0.001)
            read("waiter after")

        def spawn():
            # New threads start with their creator's slack: give the
            # creator the kernel default, whatever ran on this process
            # before.
            prctl(self.PR_SET_TIMERSLACK, self.DEFAULT_SLACK_NS, 0, 0, 0)
            for target in (waiter, lambda: read("idle")):
                thread = threading.Thread(target=target)
                thread.start()
                thread.join()

        creator = threading.Thread(target=spawn)
        creator.start()
        creator.join()
        assert slack == {"waiter before": self.DEFAULT_SLACK_NS,
                         "waiter after": 1,
                         "idle": self.DEFAULT_SLACK_NS}


class TestFakeClock:
    def test_time_only_moves_when_told(self):
        clock = FakeClock(start=100.0)
        assert clock.monotonic() == 100.0
        assert clock.monotonic() == 100.0
        clock.advance(2.5)
        assert clock.monotonic() == 102.5

    def test_time_cannot_move_backwards(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_sleep_advances_and_is_recorded(self):
        clock = FakeClock()
        clock.sleep(0.25)
        clock.sleep(0.75)
        assert clock.monotonic() == pytest.approx(1.0)
        assert clock.slept == [0.25, 0.75]

    def test_get_pops_for_free_when_item_is_ready(self):
        clock = FakeClock()
        q = queue.SimpleQueue()
        q.put("x")
        assert clock.get(q, 5.0) == "x"
        assert clock.monotonic() == 0.0

    def test_get_charges_full_timeout_on_empty_queue(self):
        # This is what lets a FakeClock expire a batching window
        # deterministically: an empty wait costs exactly its timeout.
        clock = FakeClock()
        q = queue.SimpleQueue()
        with pytest.raises(queue.Empty):
            clock.get(q, 0.01)
        assert clock.monotonic() == pytest.approx(0.01)

    def test_negative_timeout_charges_nothing(self):
        clock = FakeClock()
        q = queue.SimpleQueue()
        with pytest.raises(queue.Empty):
            clock.get(q, -1.0)
        assert clock.monotonic() == 0.0
