"""Deadline propagation: admission shed, queue eviction, await expiry.

The unit half drives :class:`AdmissionController` directly (pure state,
no clock). The e2e half holds a real engine hostage behind a gate so a
deadlined request *provably* cannot be served in time — no sleeps racing
the scheduler, the gate decides.
"""

import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.serve import AdmissionController, ModelRegistry, SheddingConfig
from repro.serve.client import Expired, Overloaded, ServeClient, ServerError
from repro.serve.server import ServeConfig, ServerThread
from repro.verify.invariants import perturb_batchnorm_stats


def _tiny_model(seed=0):
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    model.eval()
    return model


class _GatedEngine:
    """Engine proxy that blocks every batch until the test releases it."""

    def __init__(self, engine):
        self._engine = engine
        self.max_batch = engine.max_batch
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, x):
        self.entered.set()
        self.release.wait(timeout=30)
        return self._engine.run(x)


class TestAdmissionDeadline:
    def test_spent_budget_is_shed_with_reason_deadline(self):
        ctrl = AdmissionController(SheddingConfig(p99_budget_ms=None))
        ok, reason = ctrl.try_admit(remaining_ms=0.0)
        assert (ok, reason) == (False, "deadline")
        ok, reason = ctrl.try_admit(remaining_ms=-5.0)
        assert (ok, reason) == (False, "deadline")
        assert ctrl.rejected["deadline"] == 2
        assert ctrl.pending == 0            # shed before taking a slot

    def test_budget_below_recent_median_is_infeasible(self):
        ctrl = AdmissionController(SheddingConfig(p99_budget_ms=None))
        admitted, _ = ctrl.try_admit()
        assert admitted
        ctrl.on_complete(50.0)              # median service time: 50ms
        ok, reason = ctrl.try_admit(remaining_ms=10.0)
        assert (ok, reason) == (False, "deadline")
        ok, reason = ctrl.try_admit(remaining_ms=60.0)
        assert ok and reason is None

    def test_no_history_admits_any_positive_budget(self):
        # Without latency history there is no feasibility floor; only a
        # spent budget sheds.
        ctrl = AdmissionController(SheddingConfig(p99_budget_ms=None))
        ok, _ = ctrl.try_admit(remaining_ms=0.001)
        assert ok

    def test_deadline_gate_runs_before_queue_full(self):
        ctrl = AdmissionController(
            SheddingConfig(max_pending=1, p99_budget_ms=None))
        assert ctrl.try_admit()[0]
        ok, reason = ctrl.try_admit(remaining_ms=0.0)
        assert reason == "deadline"         # not "queue-full"
        ok, reason = ctrl.try_admit()
        assert reason == "queue-full"

    def test_snapshot_counts_deadline_sheds(self):
        ctrl = AdmissionController(SheddingConfig(p99_budget_ms=None))
        ctrl.try_admit(remaining_ms=0.0)
        assert ctrl.snapshot()["rejected"] == {"deadline": 1}


@pytest.fixture()
def gated_service():
    registry = ModelRegistry(
        max_batch=8, shedding=SheddingConfig(max_pending=64,
                                             p99_budget_ms=None))
    registry.deploy("m", "v1", model=_tiny_model(), input_shape=(3, 8, 8))
    _, version = registry.resolve("m")
    gate = _GatedEngine(version.engine)
    version.runner.engine = gate
    with registry, ServerThread(registry, ServeConfig()) as srv:
        yield {"srv": srv, "gate": gate, "registry": registry}
        gate.release.set()


class TestDeadlineE2E:
    def test_request_expires_while_the_engine_is_busy(self, gated_service):
        srv, gate = gated_service["srv"], gated_service["gate"]
        sample = np.random.default_rng(0).normal(
            size=(3, 8, 8)).astype(np.float32)
        blocker_out = {}

        def blocker():
            with ServeClient("127.0.0.1", srv.port) as client:
                blocker_out["value"] = client.infer("m", sample)

        t = threading.Thread(target=blocker)
        t.start()
        assert gate.entered.wait(timeout=10)    # engine is now occupied
        with ServeClient("127.0.0.1", srv.port) as client:
            with pytest.raises(Expired):
                client.infer("m", sample, deadline_ms=50.0)
            # The expiry is an answer, not a hangup: the connection and
            # the server both keep working.
            assert client.ping()
        gate.release.set()
        t.join(timeout=10)
        assert "value" in blocker_out           # blocker was never harmed
        stats = srv.server.stats()
        assert stats["counters"]["expired"] >= 1

    def test_infeasible_deadline_is_shed_at_admission(self, gated_service):
        srv, registry = gated_service["srv"], gated_service["registry"]
        line, _ = registry.resolve("m")
        for _ in range(4):
            line.admission.on_complete(1000.0)  # recent median: 1s
        sample = np.zeros((3, 8, 8), dtype=np.float32)
        with ServeClient("127.0.0.1", srv.port) as client:
            with pytest.raises(Overloaded) as excinfo:
                client.infer("m", sample, deadline_ms=1.0)
            assert excinfo.value.reason == "deadline"
        stats = srv.server.stats()
        assert stats["reject_reasons"].get("deadline", 0) >= 1
        # Shed at admission, not expired in flight.
        assert stats["counters"]["expired"] == 0

    def test_invalid_deadline_is_a_bad_request(self, gated_service):
        srv = gated_service["srv"]
        from repro.serve.client import ServerError
        with ServeClient("127.0.0.1", srv.port) as client:
            for bad in (0, -10, "soon", True):
                with pytest.raises(ServerError) as excinfo:
                    client.request({"op": "infer", "model": "m",
                                    "input": [[0.0]], "deadline_ms": bad})
                assert excinfo.value.error == "bad-request"


class TestTimeoutStage:
    def test_timeout_names_the_stage_of_each_ticket(self):
        registry = ModelRegistry(
            max_batch=8, shedding=SheddingConfig(max_pending=64,
                                                 p99_budget_ms=None))
        registry.deploy("m", "v1", model=_tiny_model(), input_shape=(3, 8, 8))
        _, version = registry.resolve("m")
        gate = _GatedEngine(version.engine)
        version.runner.engine = gate
        sample = np.zeros((3, 8, 8), dtype=np.float32)
        errors = {}

        def wedged():
            with ServeClient("127.0.0.1", srv.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.infer("m", sample)
                errors["wedged"] = excinfo.value

        try:
            with registry, ServerThread(
                    registry, ServeConfig(request_timeout_s=0.3)) as srv:
                t = threading.Thread(target=wedged)
                t.start()
                assert gate.entered.wait(timeout=10)
                with ServeClient("127.0.0.1", srv.port) as client:
                    with pytest.raises(ServerError) as excinfo:
                        client.infer("m", sample)
                t.join(timeout=10)
                gate.release.set()
        finally:
            gate.release.set()

        queued = excinfo.value
        assert queued.error == "timeout"
        assert "never batched (runner queue holds 1, worker alive)" in str(
            queued)
        assert errors["wedged"].error == "timeout"
        assert "ticket in engine.run since +" in str(errors["wedged"])
        assert "worker alive" in str(errors["wedged"])
