"""Micro-batching: coalescing, result scattering, error propagation.

The coalescing-window and deadline tests run on :class:`repro.clock.
FakeClock` — virtual time only moves when the batching loop charges it,
so the window trajectory is asserted exactly, with zero wall-clock
sleeps in any assertion.
"""

import threading
import time

import numpy as np
import pytest

from repro.clock import FakeClock
from repro.infer import BatchRunner, TicketCancelled, compile_model
from repro.infer.batcher import DeadlineExpired, InferenceTicket
from repro.models import build_model
from repro.verify.invariants import perturb_batchnorm_stats


class _StubEngine:
    """Shape-preserving engine double: doubles the input, logs batches."""

    def __init__(self, max_batch=8):
        self.max_batch = max_batch
        self.batches = []

    def run(self, x):
        x = np.asarray(x, dtype=np.float32)
        self.batches.append(x.shape[0])
        return x * 2.0


class _GatedEngine(_StubEngine):
    """Engine that blocks each batch until the test releases it."""

    def __init__(self, max_batch=8):
        super().__init__(max_batch)
        self.gate = threading.Event()

    def run(self, x):
        self.gate.wait()
        return super().run(x)


def _engine(max_batch=8):
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=0)
    perturb_batchnorm_stats(model, seed=0)
    model.eval()
    rng = np.random.default_rng(0)
    example = rng.normal(size=(max_batch, 3, 8, 8)).astype(np.float32)
    return compile_model(model, example, max_batch=max_batch)


class TestBatchRunner:
    def test_results_match_direct_engine_run(self):
        engine = _engine()
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(12, 3, 8, 8)).astype(np.float32)
        expected = engine.run(samples)
        with BatchRunner(engine, max_wait=0.005) as runner:
            tickets = [runner.submit(s) for s in samples]
            for ticket, want in zip(tickets, expected):
                np.testing.assert_allclose(ticket.result(timeout=10.0), want,
                                           rtol=1e-5, atol=1e-6)

    def test_concurrent_submitters(self):
        engine = _engine()
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(16, 3, 8, 8)).astype(np.float32)
        expected = engine.run(samples)
        results = [None] * len(samples)

        with BatchRunner(engine, max_wait=0.01) as runner:
            def worker(idx):
                results[idx] = runner.submit(samples[idx]).result(timeout=10.0)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(samples))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert runner.stats["samples"] == len(samples)
            assert runner.stats["batches"] >= 1
            assert 1 <= runner.stats["largest_batch"] <= runner.max_batch
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_closed_loop_clients_never_wait_past_the_window(self):
        # Two clients in a closed loop, as `serve-socket` drives the
        # server: each batch's straggler wait ends on its timeout with no
        # put() to wake it. A queue whose timed get() can sleep until the
        # next put() stalls both clients at once. Time-bounded: a stalled
        # ticket is reported after 0.5 s instead of hanging the suite.
        class _MatmulEngine(_StubEngine):
            def run(self, x):
                a = np.ones((64, 64), dtype=np.float32)
                a @ a
                return super().run(x)

        stalled = []
        stop = time.monotonic() + 4.0
        sample = np.zeros(3, dtype=np.float32)
        with BatchRunner(_MatmulEngine(max_batch=32), max_wait=5e-5) as runner:
            def client():
                while time.monotonic() < stop and not stalled:
                    ticket = runner.submit(sample)
                    try:
                        ticket.result(timeout=0.5)
                    except TimeoutError:
                        stalled.append(ticket)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        assert not stalled, "a ticket waited > 0.5 s on a 50 µs window"

    def test_bad_sample_fails_its_ticket(self):
        engine = _engine()
        with BatchRunner(engine) as runner:
            ticket = runner.submit(np.zeros((5, 5), dtype=np.float32))
            with pytest.raises(ValueError):
                ticket.result(timeout=10.0)

    def test_submit_after_close_raises(self):
        engine = _engine()
        runner = BatchRunner(engine)
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.submit(np.zeros((3, 8, 8), dtype=np.float32))

    def test_close_is_idempotent(self):
        runner = BatchRunner(_engine())
        runner.close()
        runner.close()

    def test_invalid_configuration_rejected(self):
        engine = _engine()
        with pytest.raises(ValueError):
            BatchRunner(engine, max_wait=-1.0)
        with pytest.raises(ValueError):
            BatchRunner(engine, max_batch=0)

    def test_ticket_done_transitions(self):
        engine = _engine()
        with BatchRunner(engine, max_wait=0.0) as runner:
            ticket = runner.submit(np.zeros((3, 8, 8), dtype=np.float32))
            ticket.result(timeout=10.0)
            assert ticket.done()

    def test_dead_worker_thread_is_respawned_on_submit(self):
        engine = _engine()
        sample = np.zeros((3, 8, 8), dtype=np.float32)
        with BatchRunner(engine, max_wait=0.0) as runner:
            first = runner.submit(sample).result(timeout=10.0)
            # Kill the worker thread out from under the runner.
            runner._queue.put(runner._worker)  # not a (sample, ticket) pair
            runner._worker.join(timeout=10.0)
            assert not runner._worker.is_alive()
            # The next submission must transparently restart it.
            again = runner.submit(sample).result(timeout=10.0)
            np.testing.assert_array_equal(first, again)
            assert runner.stats["restarts"] == 1

    def test_on_batch_hook_observes_every_batch(self):
        engine = _StubEngine(max_batch=4)
        seen = []
        with BatchRunner(engine, max_wait=0.0,
                         on_batch=lambda b, o: seen.append(
                             (b.shape[0], o.shape[0]))) as runner:
            for value in (1.0, 2.0, 3.0):
                sample = np.full((2,), value, dtype=np.float32)
                np.testing.assert_array_equal(
                    runner.submit(sample).result(timeout=10.0), sample * 2)
        assert len(seen) == 3
        assert all(b == o for b, o in seen)

    def test_raising_on_batch_hook_does_not_kill_worker(self):
        def bad_hook(batch, outputs):
            raise RuntimeError("observer bug")

        with BatchRunner(_StubEngine(), max_wait=0.0,
                         on_batch=bad_hook) as runner:
            sample = np.ones((2,), dtype=np.float32)
            for _ in range(3):
                runner.submit(sample).result(timeout=10.0)
            assert runner.stats["restarts"] == 0
            assert runner.stats["batches"] == 3
            # The fault is contained *and counted* — never silent.
            assert runner.stats["observer_faults"] == 3

    def test_observer_faults_are_reported_through_the_error_hook(self):
        failures = []

        def bad_hook(batch, outputs):
            raise RuntimeError("observer bug")

        with BatchRunner(_StubEngine(), max_wait=0.0, on_batch=bad_hook,
                         on_observer_error=failures.append) as runner:
            sample = np.ones((2,), dtype=np.float32)
            runner.submit(sample).result(timeout=10.0)
        assert len(failures) == 1
        assert isinstance(failures[0], RuntimeError)

    def test_raising_error_hook_is_itself_contained(self):
        # The containment must not regress one level up: a buggy
        # on_observer_error callback cannot kill the worker either.
        def bad_hook(batch, outputs):
            raise RuntimeError("observer bug")

        def worse_hook(exc):
            raise ValueError("error hook bug")

        with BatchRunner(_StubEngine(), max_wait=0.0, on_batch=bad_hook,
                         on_observer_error=worse_hook) as runner:
            sample = np.ones((2,), dtype=np.float32)
            for _ in range(2):
                runner.submit(sample).result(timeout=10.0)
            assert runner.stats["observer_faults"] == 2
            assert runner.stats["restarts"] == 0

    def test_registry_counts_observer_faults_in_server_metrics(self):
        from repro.serve import ModelRegistry, ServerMetrics

        def bad_hook(batch, outputs):
            raise RuntimeError("observer bug")

        metrics = ServerMetrics()
        model = build_model("vgg11", num_classes=3, image_size=8,
                            width=0.125, seed=0)
        perturb_batchnorm_stats(model, seed=0)
        model.eval()
        with ModelRegistry(max_batch=4, metrics=metrics) as registry:
            registry.deploy("m", "v1", model=model, input_shape=(3, 8, 8),
                            seed=0)
            _, version = registry.resolve("m")
            version.runner.on_batch = bad_hook
            sample = np.zeros((3, 8, 8), dtype=np.float32)
            version.runner.submit(sample).result(timeout=10.0)
        assert metrics.snapshot()["counters"]["observer_faults"] == 1

    def test_restart_not_attempted_after_close(self):
        engine = _engine()
        runner = BatchRunner(engine, max_wait=0.0)
        runner.close()
        assert not runner._worker.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            runner.submit(np.zeros((3, 8, 8), dtype=np.float32))
        assert runner.stats["restarts"] == 0


def _quiesced_runner(clock, max_batch=4, max_wait=0.01):
    """A runner whose worker has exited, for driving ``_collect`` directly.

    ``close()`` makes the worker consume the stop sentinel and return;
    afterwards the coalescing loop can be stepped from the test thread
    with the FakeClock as the only time source — fully deterministic.
    """
    runner = BatchRunner(_StubEngine(max_batch), max_batch=max_batch,
                         max_wait=max_wait, clock=clock)
    runner.close()
    return runner


def _enqueue(runner, n, start=0):
    tickets = []
    for i in range(n):
        ticket = InferenceTicket()
        sample = np.full((2,), float(start + i), dtype=np.float32)
        runner._queue.put((sample, ticket))
        tickets.append(ticket)
    return tickets


class TestCoalescingWindowDeterministic:
    """Exact window/deadline behaviour on a FakeClock — no wall clock."""

    def test_full_batch_returns_without_consuming_window(self):
        clock = FakeClock()
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.01)
        _enqueue(runner, 4)
        batch = runner._collect()
        assert len(batch) == 4
        assert clock.monotonic() == 0.0     # full batch: no waiting at all

    def test_partial_batch_waits_exactly_max_wait(self):
        clock = FakeClock()
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.01)
        _enqueue(runner, 2)
        batch = runner._collect()
        assert len(batch) == 2
        # Both queued items pop for free; the one empty get charges one
        # idle gap (max_wait / 10) to virtual time and closes the batch
        # long before its window would have run out.
        assert clock.monotonic() == pytest.approx(0.001)
        assert runner.stats["closed_idle"] == 1

    def test_zero_window_ships_singletons(self):
        clock = FakeClock()
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.0)
        _enqueue(runner, 3)
        assert len(runner._collect()) == 1  # deadline expires immediately
        assert len(runner._collect()) == 1
        assert clock.monotonic() == 0.0

    def test_max_wait_is_read_per_batch(self):
        # The serving layer's adaptive window retunes runner.max_wait
        # between batches; _collect must pick up the new value.
        clock = FakeClock()
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.001)
        _enqueue(runner, 1)
        runner._collect()
        assert clock.monotonic() == pytest.approx(0.0001)
        runner.max_wait = 0.016         # the idle gap follows: 1.6 ms
        _enqueue(runner, 1)
        runner._collect()
        assert clock.monotonic() == pytest.approx(0.0017)

    def test_cancelled_tickets_are_dropped_before_the_engine_runs(self):
        clock = FakeClock()
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.01)
        tickets = _enqueue(runner, 3)
        assert tickets[1].cancel()
        batch = runner._collect()
        assert len(batch) == 2
        assert [float(s[0]) for s, _ in batch] == [0.0, 2.0]
        assert runner.stats["cancelled"] == 1

    def test_stop_sentinel_mid_coalesce_is_rearmed(self):
        from repro.infer import batcher
        clock = FakeClock()
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.01)
        _enqueue(runner, 1)
        runner._queue.put(batcher._STOP)
        _enqueue(runner, 1, start=1)
        # The sentinel truncates the first batch but must survive for the
        # loop's next round rather than being swallowed.
        assert len(runner._collect()) == 1
        assert len(runner._collect()) == 1
        assert runner._collect() == []      # the re-armed sentinel

    def test_live_worker_resolves_results_on_fake_clock(self):
        clock = FakeClock()
        engine = _StubEngine(max_batch=8)
        with BatchRunner(engine, max_wait=0.004, clock=clock) as runner:
            for value in (1.0, 2.0, 3.0):
                sample = np.full((2,), value, dtype=np.float32)
                np.testing.assert_array_equal(
                    runner.submit(sample).result(timeout=10.0), sample * 2)
        # Each singleton batch charged one idle gap to virtual time.
        assert clock.monotonic() == pytest.approx(3 * 0.0004)
        assert runner.stats["closed_idle"] == 3

    def test_tickets_carry_exact_queue_wait(self):
        # The first ticket parks the worker inside the engine; the second
        # queues behind it while virtual time moves 0.25 s, so its batch
        # starts exactly 250 ms after its submit.
        clock = FakeClock(start=10.0)
        engine = _GatedEngine(max_batch=1)
        with BatchRunner(engine, max_wait=0.0, clock=clock) as runner:
            first = runner.submit(np.zeros(2, np.float32))
            second = runner.submit(np.ones(2, np.float32))
            clock.advance(0.25)
            engine.gate.set()
            first.result(timeout=10.0)
            second.result(timeout=10.0)
        assert first.submitted == 10.0
        assert second.queue_wait_ms == 250.0
        unstarted = InferenceTicket(submitted=10.0)
        assert unstarted.queue_wait_ms is None


class _ArrivalClock(FakeClock):
    """FakeClock with requests scheduled to arrive at virtual times.

    ``arrivals`` is an ascending list of ``(time, deadline)``. A ``get``
    on an empty queue advances to the next arrival if it lands within the
    timeout and returns it; otherwise it charges the timeout and raises.
    """

    def __init__(self, arrivals):
        super().__init__()
        self.arrivals = list(arrivals)

    def get(self, q, timeout):
        if q.empty() and self.arrivals and (
                self.arrivals[0][0] <= self.monotonic() + timeout):
            at, deadline = self.arrivals.pop(0)
            self.advance(at - self.monotonic())
            return (np.full((2,), at, dtype=np.float32),
                    InferenceTicket(deadline, at))
        return super().get(q, timeout)


def _arrivals_runner(times, max_batch=32, max_wait=0.0005, deadline=None):
    """A quiesced runner whose first request is queued at t = 0 and whose
    later requests arrive at ``times`` on an :class:`_ArrivalClock`."""
    clock = _ArrivalClock([(t, deadline) for t in times])
    runner = _quiesced_runner(clock, max_batch=max_batch, max_wait=max_wait)
    runner._queue.put((np.zeros(2, np.float32), InferenceTicket(deadline)))
    return clock, runner


class TestIdleGapClose:
    """A batch closes when its arrivals stop: full, idle for one gap
    (``max_wait / 10``), or ``max_wait`` after its first request."""

    def test_second_request_closes_one_gap_after_it_lands(self):
        clock, runner = _arrivals_runner([10e-6])
        assert len(runner._collect()) == 2
        # 10 µs to the second arrival, then one 50 µs gap: not 500 µs.
        assert clock.monotonic() == pytest.approx(60e-6)
        assert runner.stats["closed_idle"] == 1

    def test_burst_of_32_forms_one_batch(self):
        # The drain path's shape: 32 requests 2 µs apart.
        clock, runner = _arrivals_runner([2e-6 * i for i in range(1, 32)])
        assert len(runner._collect()) == 32
        assert clock.monotonic() == pytest.approx(62e-6)
        assert runner.stats["closed_full"] == 1

    def test_arrival_after_the_gap_goes_to_the_next_batch(self):
        clock, runner = _arrivals_runner([100e-6])
        assert len(runner._collect()) == 1
        assert clock.monotonic() == pytest.approx(50e-6)
        # The late request lands at 100 µs and opens its own batch.
        clock.arrivals.clear()
        clock.advance(50e-6)
        _enqueue(runner, 1)
        assert len(runner._collect()) == 1
        assert clock.monotonic() == pytest.approx(150e-6)
        assert runner.stats["closed_idle"] == 2

    def test_wide_window_fills_with_arrivals_1ms_apart(self):
        # At the controller's 20 ms ceiling the gap is 2 ms, so arrivals
        # 1 ms apart keep the batch open until it is full.
        clock, runner = _arrivals_runner([1e-3 * i for i in range(1, 12)],
                                         max_batch=8, max_wait=0.020)
        assert len(runner._collect()) == 8
        assert clock.monotonic() == pytest.approx(7e-3)
        assert runner.stats["closed_full"] == 1

    def test_steady_trickle_closes_on_the_window(self):
        # Arrivals every 40 µs never leave a 50 µs gap: the batch runs to
        # its 500 µs window, holding the requests of 0, 40, ..., 480 µs.
        clock, runner = _arrivals_runner([40e-6 * i for i in range(1, 20)])
        assert len(runner._collect()) == 13
        assert clock.monotonic() == pytest.approx(500e-6)
        assert runner.stats["closed_window"] == 1

    def test_deadline_passing_during_the_idle_wait_is_evicted(self):
        clock, runner = _arrivals_runner([], deadline=30e-6)
        assert runner._collect() == []
        assert clock.monotonic() == pytest.approx(50e-6)
        assert runner.stats["expired"] == 1
        assert runner.stats["closed_idle"] == 1


def _enqueue_deadlines(runner, deadlines):
    """Queue one ticket per deadline (sample value = its index)."""
    tickets = []
    for i, deadline in enumerate(deadlines):
        ticket = InferenceTicket(deadline)
        sample = np.full((2,), float(i), dtype=np.float32)
        runner._queue.put((sample, ticket))
        tickets.append(ticket)
    return tickets


class TestDeadlineEviction:
    """Expired tickets are evicted during batch formation — acceptance
    criterion (a): a request whose deadline passed while it sat in the
    queue never reaches the engine and surfaces as ``expired``."""

    def test_past_deadline_is_evicted_and_counted(self):
        clock = FakeClock(start=10.0)
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.01)
        tickets = _enqueue_deadlines(runner, [None, 9.0, 10.0, 11.0])
        batch = runner._collect()
        # 9.0 is past, 10.0 is exactly now (expired: deadline <= now);
        # None and 11.0 survive. A full queue pops for free, so virtual
        # time did not move and the cut is exact.
        assert [float(s[0]) for s, _ in batch] == [0.0, 3.0]
        assert runner.stats["expired"] == 2
        assert clock.monotonic() == 10.0
        for ticket in (tickets[1], tickets[2]):
            with pytest.raises(DeadlineExpired):
                ticket.result(timeout=0)

    def test_eviction_happens_after_the_coalescing_wait(self):
        # A deadline that is live at submit time but dies inside the
        # batching wait is still evicted: the check runs at batch
        # formation, against the clock *after* the wait was charged.
        clock = FakeClock(start=0.0)
        runner = _quiesced_runner(clock, max_batch=4, max_wait=0.05)
        tickets = _enqueue_deadlines(runner, [0.004])
        batch = runner._collect()       # one empty get charges the 5 ms gap
        assert batch == []
        assert clock.monotonic() == pytest.approx(0.005)
        assert runner.stats["expired"] == 1
        with pytest.raises(DeadlineExpired):
            tickets[0].result(timeout=0)

    def test_cancelled_ticket_counts_cancelled_not_expired(self):
        clock = FakeClock(start=10.0)
        runner = _quiesced_runner(clock, max_batch=2, max_wait=0.01)
        tickets = _enqueue_deadlines(runner, [5.0, None])
        tickets[0].cancel()             # caller gave up before eviction
        batch = runner._collect()
        assert len(batch) == 1
        assert runner.stats["cancelled"] == 1
        assert runner.stats["expired"] == 0

    def test_deadline_expired_is_a_timeout_error(self):
        # The serving layer's error taxonomy depends on this: expired
        # must NOT be a RuntimeError, or the hot-swap retry branch would
        # resubmit already-dead work.
        assert issubclass(DeadlineExpired, TimeoutError)
        assert not issubclass(DeadlineExpired, RuntimeError)

    def test_live_runner_never_runs_expired_work(self):
        # Real clock, gated engine: the blocker occupies the worker, the
        # victim's deadline is already past when submitted, so the batch
        # formed after the gate opens must exclude it.
        engine = _GatedEngine(max_batch=8)
        with BatchRunner(engine, max_wait=0.0) as runner:
            blocker = runner.submit(np.full((2,), 1.0, dtype=np.float32))
            victim = runner.submit(np.full((2,), 2.0, dtype=np.float32),
                                   deadline=runner.clock.monotonic() - 1.0)
            engine.gate.set()
            np.testing.assert_array_equal(blocker.result(timeout=10.0),
                                          np.full((2,), 2.0, np.float32))
            with pytest.raises(DeadlineExpired):
                victim.result(timeout=10.0)
            # Only the blocker's singleton batch ever reached the engine;
            # a live-deadline probe confirms the worker is still healthy.
            probe = runner.submit(
                np.full((2,), 3.0, dtype=np.float32),
                deadline=runner.clock.monotonic() + 60.0)
            probe.result(timeout=10.0)
            assert runner.stats["expired"] == 1
            assert runner.stats["samples"] == 2     # blocker + probe


class TestInferenceTicket:
    def test_cancel_resolves_and_reports(self):
        ticket = InferenceTicket()
        assert ticket.cancel()
        assert ticket.done() and ticket.cancelled()
        with pytest.raises(TicketCancelled):
            ticket.result(timeout=0)

    def test_cancel_after_completion_is_refused(self):
        ticket = InferenceTicket()
        assert ticket._complete(np.float32(7.0))
        assert not ticket.cancel()
        assert not ticket.cancelled()
        assert ticket.result(timeout=0) == np.float32(7.0)

    def test_result_without_cancel_leaves_ticket_pending(self):
        ticket = InferenceTicket()
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0)
        assert not ticket.done()
        ticket._complete(np.float32(1.0))
        assert ticket.result(timeout=0) == np.float32(1.0)

    def test_cancel_on_timeout_resolves_the_ticket(self):
        engine = _GatedEngine()
        with BatchRunner(engine, max_wait=0.0) as runner:
            ticket = runner.submit(np.ones((2,), dtype=np.float32))
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01, cancel_on_timeout=True)
            assert ticket.cancelled()
            engine.gate.set()
            # The in-flight batch completes; its attempt to resolve the
            # cancelled ticket is counted, not raised.
            probe = runner.submit(np.ones((2,), dtype=np.float32))
            probe.result(timeout=10.0)
            assert runner.stats["cancelled"] >= 1

    def test_done_callback_fires_on_resolution(self):
        ticket = InferenceTicket()
        fired = []
        ticket.add_done_callback(lambda t: fired.append(t.done()))
        assert fired == []
        ticket._complete(np.float32(0.0))
        assert fired == [True]

    def test_done_callback_fires_immediately_when_already_done(self):
        ticket = InferenceTicket()
        ticket.cancel()
        fired = []
        ticket.add_done_callback(lambda t: fired.append(t.cancelled()))
        assert fired == [True]

    def test_raising_done_callback_is_contained(self):
        ticket = InferenceTicket()

        def bad(_t):
            raise RuntimeError("observer bug")

        fired = []
        ticket.add_done_callback(bad)
        ticket.add_done_callback(lambda t: fired.append(True))
        ticket._complete(np.float32(0.0))
        assert fired == [True]
