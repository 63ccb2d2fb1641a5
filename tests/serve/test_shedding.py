"""Admission control: exact admit/reject sequences, pure state machine."""

import pytest

from repro.serve import AdmissionController, SheddingConfig
from repro.serve.shedding import RESERVOIR


class TestSheddingConfig:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SheddingConfig(max_pending=0)
        with pytest.raises(ValueError):
            SheddingConfig(p99_budget_ms=0.0)

    def test_none_budget_disables_the_slo_gate(self):
        admission = AdmissionController(
            SheddingConfig(max_pending=4, p99_budget_ms=None))
        ok, _ = admission.try_admit()
        assert ok
        admission.on_complete(10_000.0)     # horrendous latency
        for _ in range(3):
            ok, reason = admission.try_admit()
            assert ok and reason is None    # only the depth bound applies


class TestDepthBound:
    def test_queue_full_at_exact_depth(self):
        admission = AdmissionController(
            SheddingConfig(max_pending=2, p99_budget_ms=None))
        assert admission.try_admit() == (True, None)
        assert admission.try_admit() == (True, None)
        assert admission.try_admit() == (False, "queue-full")
        assert admission.pending == 2
        assert admission.rejected == {"queue-full": 1}

    def test_completion_frees_a_slot(self):
        admission = AdmissionController(
            SheddingConfig(max_pending=1, p99_budget_ms=None))
        assert admission.try_admit() == (True, None)
        assert admission.try_admit() == (False, "queue-full")
        admission.on_complete(1.0)
        assert admission.try_admit() == (True, None)

    def test_pending_never_goes_negative(self):
        admission = AdmissionController()
        admission.on_complete(1.0)
        assert admission.pending == 0


class TestSloGate:
    def _congested(self, **kw):
        cfg = dict(max_pending=64, p99_budget_ms=10.0)
        cfg.update(kw)
        admission = AdmissionController(SheddingConfig(**cfg))
        # Fill the latency reservoir with budget-busting completions.
        for _ in range(4):
            ok, _ = admission.try_admit()
            assert ok
            admission.on_complete(500.0)
        return admission

    def test_sheds_on_blown_p99_once_past_probe_depth(self):
        admission = self._congested()
        assert admission.try_admit() == (True, None)    # pending 1 < probe
        assert admission.try_admit() == (True, None)    # pending 2 == probe?
        # PROBE_PENDING = 2: depths 0 and 1 are probe traffic, depth 2 sheds.
        assert admission.try_admit() == (False, "slo")
        assert admission.rejected == {"slo": 1}

    def test_probe_traffic_flows_below_probe_depth(self):
        admission = self._congested()
        ok, reason = admission.try_admit()
        assert ok and reason is None

    def test_fast_probes_lift_the_gate(self):
        admission = self._congested()
        # Probe completions refresh the reservoir with healthy latencies
        # until the slow ones age out; the controller must rediscover
        # recovery by itself.
        for _ in range(RESERVOIR):
            ok, _ = admission.try_admit()
            assert ok
            admission.on_complete(1.0)
        assert admission.try_admit() == (True, None)
        assert admission.try_admit() == (True, None)
        assert admission.try_admit() == (True, None)    # gate fully open

    def test_snapshot_names_the_whole_policy(self):
        admission = self._congested()
        admission.try_admit()
        snap = admission.snapshot()
        assert snap["pending"] == 1
        assert snap["max_pending"] == 64
        assert snap["p99_budget_ms"] == 10.0
        assert snap["recent_p99_ms"] == 500.0
        assert snap["admitted"] == 5
        assert snap["rejected"] == {}
