"""Latency reservoirs and the server's metrics roll-up."""

import pytest

from repro.serve import LatencyReservoir, ServerMetrics, sum_counters


class TestLatencyReservoir:
    def test_empty_reservoir_has_no_percentiles(self):
        reservoir = LatencyReservoir(8)
        assert reservoir.percentile(99.0) is None
        assert reservoir.summary() == {"count": 0, "p50_ms": None,
                                       "p99_ms": None, "max_ms": None}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyReservoir(0)

    def test_percentile_is_nearest_rank(self):
        reservoir = LatencyReservoir(8)
        for v in (40.0, 10.0, 30.0, 20.0):
            reservoir.record(v)
        assert reservoir.percentile(0.0) == 10.0
        assert reservoir.percentile(50.0) == 20.0
        assert reservoir.percentile(100.0) == 40.0

    def test_percentile_range_is_validated(self):
        reservoir = LatencyReservoir(8)
        reservoir.record(1.0)
        with pytest.raises(ValueError):
            reservoir.percentile(101.0)

    def test_single_sample_dominates_every_percentile(self):
        reservoir = LatencyReservoir(8)
        reservoir.record(7.5)
        for p in (0.0, 50.0, 99.0, 100.0):
            assert reservoir.percentile(p) == 7.5
        assert reservoir.summary() == {"count": 1, "p50_ms": 7.5,
                                       "p99_ms": 7.5, "max_ms": 7.5}

    def test_exact_ring_wrap_boundary(self):
        # Filling to exactly capacity keeps every sample; the very next
        # record evicts the oldest, one at a time, in arrival order.
        reservoir = LatencyReservoir(4)
        for v in (1.0, 2.0, 3.0, 4.0):
            reservoir.record(v)
        assert reservoir.count == 4
        assert reservoir.percentile(0.0) == 1.0     # nothing evicted yet
        reservoir.record(5.0)                       # first wrap
        assert reservoir.percentile(0.0) == 2.0
        assert reservoir.percentile(100.0) == 5.0
        reservoir.record(6.0)                       # second slot wraps
        assert reservoir.percentile(0.0) == 3.0
        assert reservoir.count == 6                 # lifetime keeps counting

    def test_ring_keeps_only_the_most_recent_window(self):
        reservoir = LatencyReservoir(3)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            reservoir.record(v)
        assert reservoir.count == 5                 # lifetime
        assert reservoir.percentile(0.0) == 3.0     # 1.0 and 2.0 evicted
        assert reservoir.percentile(100.0) == 5.0

    def test_summary_reports_the_window(self):
        reservoir = LatencyReservoir(8)
        for v in (5.0, 1.0, 9.0):
            reservoir.record(v)
        summary = reservoir.summary()
        assert summary["count"] == 3
        assert summary["p50_ms"] == 5.0
        assert summary["max_ms"] == 9.0


class TestCrossReplicaAggregation:
    """Fleet-wide stats: per-replica reservoirs merge, counters sum."""

    def test_samples_unwraps_the_ring_in_arrival_order(self):
        reservoir = LatencyReservoir(3)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            reservoir.record(v)
        assert reservoir.samples() == [3.0, 4.0, 5.0]

    def test_from_samples_round_trips_window_and_lifetime(self):
        original = LatencyReservoir(4)
        for v in (10.0, 20.0, 30.0, 40.0, 50.0):
            original.record(v)
        rebuilt = LatencyReservoir.from_samples(original.samples(),
                                                lifetime=original.count)
        assert rebuilt.samples() == original.samples()
        assert rebuilt.count == original.count
        assert rebuilt.summary() == original.summary()

    def test_merged_percentiles_cover_every_replica_window(self):
        # Two replicas with disjoint latency regimes: the fleet p50/p99
        # must be computed over the union, not either window alone.
        fast = LatencyReservoir.from_samples([1.0, 2.0, 3.0, 4.0])
        slow = LatencyReservoir.from_samples([100.0, 200.0])
        fleet = LatencyReservoir.merged([fast, slow])
        assert fleet.count == 6
        assert fleet.percentile(100.0) == 200.0
        assert fleet.percentile(0.0) == 1.0
        # p50 sits inside the fast replica's window (4 of 6 samples).
        assert fleet.percentile(50.0) in (3.0, 4.0)

    def test_merged_preserves_lifetime_counts_past_the_window(self):
        a = LatencyReservoir(2)
        for v in (1.0, 2.0, 3.0):            # lifetime 3, window 2
            a.record(v)
        b = LatencyReservoir.from_samples([5.0])
        fleet = LatencyReservoir.merged(
            [LatencyReservoir.from_samples(a.samples(), lifetime=a.count),
             b])
        assert fleet.count == 4              # 3 + 1 lifetime, not 2 + 1
        assert fleet.summary()["max_ms"] == 5.0

    def test_merged_of_nothing_is_an_empty_reservoir(self):
        fleet = LatencyReservoir.merged([])
        assert fleet.percentile(99.0) is None
        assert fleet.summary()["count"] == 0

    def test_sum_counters_unions_keys_and_sums_values(self):
        fleet = sum_counters([
            {"completed": 3, "errors": 1},
            {"completed": 4, "expired": 2},
            {},
        ])
        assert fleet == {"completed": 7, "errors": 1, "expired": 2}

    def test_server_metrics_exports_its_sample_window(self):
        metrics = ServerMetrics()
        metrics.record_completion("m@v1", 10.0)
        metrics.record_completion("m@v1", 30.0)
        samples = metrics.latency_samples()
        assert samples == [10.0, 30.0]
        # The export is what a replica ships over the wire; rebuilding
        # from it reproduces the summary the replica would report.
        rebuilt = LatencyReservoir.from_samples(samples, lifetime=2)
        assert rebuilt.summary()["p50_ms"] == (
            metrics.snapshot()["latency"]["p50_ms"])


class TestServerMetrics:
    def test_counters_and_rejection_reasons(self):
        metrics = ServerMetrics()
        metrics.incr("received", 3)
        metrics.record_rejection("queue-full")
        metrics.record_rejection("queue-full")
        metrics.record_rejection("slo")
        snap = metrics.snapshot()
        assert snap["counters"]["received"] == 3
        assert snap["counters"]["rejected"] == 3
        assert snap["reject_reasons"] == {"queue-full": 2, "slo": 1}

    def test_completions_feed_global_and_per_model_reservoirs(self):
        metrics = ServerMetrics()
        metrics.record_completion("m@v1", 10.0, queue_wait_ms=2.0)
        metrics.record_completion("m@v1", 30.0, queue_wait_ms=4.0)
        metrics.record_completion("n@v1", 50.0)
        snap = metrics.snapshot()
        assert snap["counters"]["completed"] == 3
        assert snap["latency"]["count"] == 3
        assert snap["latency"]["max_ms"] == 50.0
        assert snap["queue_wait"]["count"] == 2
        assert snap["per_model"]["m@v1"]["count"] == 2
        assert snap["per_model"]["n@v1"]["p50_ms"] == 50.0

    def test_cancelled_and_expired_are_first_class_counters(self):
        # The request-lifecycle outcomes are stock keys — present (at
        # zero) before anything happens, so dashboards never KeyError.
        fresh = ServerMetrics().snapshot()["counters"]
        assert fresh["cancelled"] == 0
        assert fresh["expired"] == 0
        assert fresh["replayed"] == 0
        metrics = ServerMetrics()
        metrics.incr("cancelled")
        metrics.incr("expired", 2)
        metrics.incr("replayed")
        snap = metrics.snapshot()["counters"]
        assert snap["cancelled"] == 1
        assert snap["expired"] == 2
        assert snap["replayed"] == 1
        # Neither path touches the completion reservoirs.
        assert metrics.snapshot()["latency"]["count"] == 0

    def test_snapshot_merges_extra_payload(self):
        metrics = ServerMetrics()
        snap = metrics.snapshot(extra={"models": {"m": {}}})
        assert snap["models"] == {"m": {}}
        # And the stock sections are still present alongside.
        assert set(snap) >= {"counters", "reject_reasons", "latency",
                             "queue_wait", "per_model", "models"}


class TestStageStamps:
    """A served ticket's time splits into queue wait, engine and return,
    each exact on a fake clock, and each feeds its own reservoir."""

    def test_ticket_stages_are_exact_on_a_fake_clock(self):
        import numpy as np

        from repro.clock import FakeClock
        from repro.infer import BatchRunner, InferenceTicket

        clock = FakeClock(start=5.0)

        class SlowEngine:
            max_batch = 4

            def run(self, batch):
                clock.advance(0.003)        # the engine takes 3 ms
                return batch * 2

        with BatchRunner(SlowEngine(), max_wait=0.0, clock=clock) as runner:
            ticket = runner.submit(np.ones(2, np.float32))
            ticket.result(timeout=10.0)
        assert ticket.finished - ticket.started == pytest.approx(0.003)
        stages = ticket.stages_ms(ticket.finished + 0.0005)
        assert stages["queue_wait_ms"] == ticket.queue_wait_ms
        assert stages["engine_ms"] == pytest.approx(3.0)
        assert stages["return_ms"] == pytest.approx(0.5)
        assert InferenceTicket().stages_ms(1.0) == {
            "queue_wait_ms": None, "engine_ms": None, "return_ms": None}

    def test_stages_feed_their_reservoirs(self):
        metrics = ServerMetrics()
        metrics.record_completion("m@v1", 10.0, queue_wait_ms=2.0,
                                  engine_ms=3.0, return_ms=0.5)
        metrics.record_completion("m@v1", 12.0)     # the eager path
        snap = metrics.snapshot()
        assert snap["engine"] == {"count": 1, "p50_ms": 3.0, "p99_ms": 3.0,
                                  "max_ms": 3.0}
        assert snap["return"]["count"] == 1
        assert snap["return"]["p50_ms"] == 0.5
        assert snap["queue_wait"]["count"] == 1
