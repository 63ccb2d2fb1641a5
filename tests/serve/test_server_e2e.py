"""End-to-end over a real socket: equivalence, shedding, hot-swap, stats.

The bitwise test does not assume batch-composition invariance (BLAS
reductions differ between a batch of 1 and a batch of 8). Instead the
registry's ``on_batch`` hook records every batch the engine *actually
executed*; each response is then required to be bitwise equal to its row
of that trace. JSON float round-tripping is exact for float32, so any
difference would be a real serving bug, not formatting noise.
"""

import threading
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.serve import ModelRegistry, SheddingConfig
from repro.serve.client import Overloaded, ServeClient, ServerError
from repro.serve.server import ServeConfig, ServerThread
from repro.tensor import Tensor, inference_mode
from repro.verify.invariants import perturb_batchnorm_stats


def _tiny_model(seed=0):
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    model.eval()
    return model


class _BatchTrace:
    """Thread-safe record of every executed batch, keyed by sample bytes."""

    def __init__(self):
        self._lock = threading.Lock()
        self.rows: dict[bytes, np.ndarray] = {}
        self.batch_sizes: list[int] = []

    def __call__(self, name, version, batch, outputs):
        with self._lock:
            self.batch_sizes.append(len(batch))
            for sample, row in zip(batch, outputs):
                self.rows[np.ascontiguousarray(sample).tobytes()] = \
                    np.array(row, copy=True)


@pytest.fixture(scope="module")
def service():
    trace = _BatchTrace()
    registry = ModelRegistry(
        max_batch=8, shedding=SheddingConfig(max_pending=256,
                                             p99_budget_ms=None),
        on_batch=trace)
    model = _tiny_model()
    registry.deploy("m", "v1", model=model, input_shape=(3, 8, 8))
    with registry, ServerThread(registry, ServeConfig()) as srv:
        yield {"port": srv.port, "trace": trace, "model": model,
               "registry": registry}


class TestProtocol:
    def test_ping_and_models(self, service):
        with ServeClient("127.0.0.1", service["port"]) as client:
            assert client.ping()
            models = client.models()
            assert models["m"]["active"] == "m@v1"
            assert "admission" in models["m"]

    def test_single_request_round_trip(self, service):
        sample = np.random.default_rng(0).normal(
            size=(3, 8, 8)).astype(np.float32)
        with ServeClient("127.0.0.1", service["port"]) as client:
            response = client.infer_verbose("m", sample)
        assert response["ok"] and response["model"] == "m@v1"
        assert response["served_by"] in ("batch", "eager")
        assert response["latency_ms"] >= 0
        with inference_mode():
            want = service["model"](Tensor(sample[None])).data[0]
        np.testing.assert_allclose(
            np.asarray(response["output"], np.float32), want,
            rtol=1e-4, atol=1e-5)

    def test_unknown_model_is_a_named_error(self, service):
        with ServeClient("127.0.0.1", service["port"]) as client:
            with pytest.raises(ServerError) as excinfo:
                client.infer("ghost", np.zeros((3, 8, 8), np.float32))
            assert excinfo.value.error == "no-such-model"

    def test_bad_input_shape_is_a_bad_request(self, service):
        with ServeClient("127.0.0.1", service["port"]) as client:
            with pytest.raises(ServerError) as excinfo:
                client.infer("m", np.zeros((5, 5), np.float32))
            assert excinfo.value.error == "bad-request"
            # The connection survives a bad request.
            assert client.ping()

    def test_malformed_json_and_unknown_op(self, service):
        with ServeClient("127.0.0.1", service["port"]) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            import json
            response = json.loads(client._file.readline())
            assert response == {"ok": False, "error": "bad-request",
                                "message": response["message"]}
            with pytest.raises(ServerError) as excinfo:
                client.request({"op": "selfdestruct"})
            assert excinfo.value.error == "unknown-op"

    def test_swap_requires_all_fields(self, service):
        with ServeClient("127.0.0.1", service["port"]) as client:
            with pytest.raises(ServerError) as excinfo:
                client.request({"op": "swap", "name": "m"})
            assert excinfo.value.error == "bad-request"


class TestConcurrentEquivalence:
    def test_every_response_is_bitwise_equal_to_its_executed_batch_row(
            self, service):
        connections, per_connection = 6, 8
        rng = np.random.default_rng(42)
        samples = rng.normal(size=(connections, per_connection, 3, 8, 8)
                             ).astype(np.float32)
        results = {}
        errors = []
        lock = threading.Lock()

        def run_client(cid):
            try:
                with ServeClient("127.0.0.1", service["port"]) as client:
                    for i in range(per_connection):
                        response = client.infer_verbose("m", samples[cid, i])
                        with lock:
                            results[(cid, i)] = (
                                np.asarray(response["output"], np.float32),
                                response["served_by"])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                with lock:
                    errors.append(repr(exc))

        threads = [threading.Thread(target=run_client, args=(c,))
                   for c in range(connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert len(results) == connections * per_connection
        trace = service["trace"]
        for (cid, i), (output, served_by) in results.items():
            assert served_by == "batch"
            key = samples[cid, i].tobytes()
            assert key in trace.rows, "request never reached the engine"
            np.testing.assert_array_equal(output, trace.rows[key])

    def test_stats_reflect_the_traffic(self, service):
        with ServeClient("127.0.0.1", service["port"]) as client:
            stats = client.stats()
        counters = stats["counters"]
        assert counters["completed"] >= 48
        # No engine faults: nothing fell back to the serial eager path.
        # (The "errors" counter is not asserted zero here — the protocol
        # tests above deliberately send one malformed infer request.)
        assert counters["fallbacks"] == 0
        assert stats["latency"]["p50_ms"] is not None
        assert stats["latency"]["p99_ms"] is not None
        assert stats["models"]["m"]["window"]["window_s"] > 0
        assert stats["models"]["m"]["admission"]["pending"] == 0


class _SlowEngine:
    def __init__(self, engine, delay_s):
        self._engine = engine
        self._delay = delay_s
        self.max_batch = engine.max_batch

    def run(self, x):
        time.sleep(self._delay)
        return self._engine.run(x)


class TestOverload:
    def test_shedding_is_explicit_bounded_and_loss_free(self):
        registry = ModelRegistry(
            max_batch=4, shedding=SheddingConfig(max_pending=3,
                                                 p99_budget_ms=None))
        model = _tiny_model()
        with registry:
            registry.deploy("m", "v1", model=model, input_shape=(3, 8, 8))
            _, version = registry.resolve("m")
            version.runner.engine = _SlowEngine(version.engine, 0.02)

            outcomes = {"ok": 0, "shed": 0, "error": 0}
            lock = threading.Lock()

            def hammer(wid):
                rng = np.random.default_rng(wid)
                local = {"ok": 0, "shed": 0, "error": 0}
                with ServeClient("127.0.0.1", port) as client:
                    for _ in range(5):
                        sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                        try:
                            client.infer("m", sample)
                            local["ok"] += 1
                        except Overloaded as exc:
                            assert exc.reason == "queue-full"
                            local["shed"] += 1
                        except ServerError:
                            local["error"] += 1
                with lock:
                    for k in outcomes:
                        outcomes[k] += local[k]

            with ServerThread(registry, ServeConfig()) as srv:
                port = srv.port
                threads = [threading.Thread(target=hammer, args=(i,))
                           for i in range(6)]    # 2x the admission bound
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                stats = srv.server.stats()

        assert outcomes["error"] == 0
        assert outcomes["ok"] + outcomes["shed"] == 30   # nothing vanished
        assert outcomes["shed"] > 0
        assert stats["reject_reasons"].get("queue-full", 0) == \
            outcomes["shed"]


class TestExactlyOnce:
    def test_retry_on_a_new_connection_replays_the_dropped_response(self):
        # The reply to the first send is lost with its connection; the
        # caller reconnects and resends the same rid. The server answers
        # from its replay cache: same bytes, and the work is counted once.
        sample = np.random.default_rng(4).normal(
            size=(3, 8, 8)).astype(np.float32)
        payload = {"op": "infer", "model": "m", "rid": "once:1"}
        registry = ModelRegistry(
            max_batch=8, shedding=SheddingConfig(p99_budget_ms=None))
        with registry:
            registry.deploy("m", "v1", model=_tiny_model(),
                            input_shape=(3, 8, 8))
            with ServerThread(registry, ServeConfig()) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    first = client.request(dict(payload), body=sample)
                with ServeClient("127.0.0.1", srv.port) as client:
                    again = client.request(dict(payload), body=sample)
                stats = srv.server.stats()
        assert "replayed" not in first and again["replayed"] is True
        assert again["output"].tobytes() == first["output"].tobytes()
        assert stats["counters"]["completed"] == 1
        assert stats["counters"]["replayed"] == 1


class TestOversizedLines:
    """A request line over ``max_line_bytes`` is answered, not dropped.

    Before PR 7 the server let ``readline`` blow up the connection and
    the client saw a bare EOF. Now the oversized line is consumed, the
    client gets an explicit ``bad-request``/``line-too-long``, and the
    same connection keeps serving.
    """

    @pytest.fixture()
    def small_limit_service(self):
        registry = ModelRegistry(
            max_batch=8, shedding=SheddingConfig(p99_budget_ms=None))
        registry.deploy("m", "v1", model=_tiny_model(),
                        input_shape=(3, 8, 8))
        with registry, ServerThread(
                registry, ServeConfig(max_line_bytes=4096)) as srv:
            yield srv

    def test_oversized_line_gets_explicit_error_and_survives(
            self, small_limit_service):
        import json
        srv = small_limit_service
        with ServeClient("127.0.0.1", srv.port) as client:
            client._file.write(b"x" * 20_000 + b"\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            assert response["error"] == "bad-request"
            assert response["reason"] == "line-too-long"
            # The connection resynchronised on the newline: later
            # requests on the same socket are served normally.
            assert client.ping()
            sample = np.zeros((3, 8, 8), dtype=np.float32)
            assert client.infer("m", sample).shape == (3,)

    def test_interleaved_oversized_lines_do_not_poison_requests(
            self, small_limit_service):
        import json
        srv = small_limit_service
        with ServeClient("127.0.0.1", srv.port) as client:
            for _ in range(3):
                client._file.write(b"y" * 10_000 + b"\n")
                client._file.flush()
                response = json.loads(client._file.readline())
                assert response["reason"] == "line-too-long"
                assert client.ping()

    def test_oversized_line_counts_as_received(self, small_limit_service):
        import json
        srv = small_limit_service
        with ServeClient("127.0.0.1", srv.port) as client:
            before = client.stats()["counters"]["received"]
            client._file.write(b"z" * 9_000 + b"\n")
            client._file.flush()
            json.loads(client._file.readline())
            after = client.stats()["counters"]["received"]
        assert after == before + 2          # the bad line + one stats call


class TestDrillsAsTests:
    """The verify drills double as the heavyweight e2e scenarios."""

    def test_shed_drill_passes(self):
        from repro.serve.drills import _drill_serve_shed
        result = _drill_serve_shed(seed=0)
        assert result.passed, result.failures

    def test_hot_swap_drill_passes(self):
        from repro.serve.drills import _drill_serve_swap
        result = _drill_serve_swap(seed=0)
        assert result.passed, result.failures

    def test_drain_drill_passes(self):
        from repro.serve.drills import _drill_serve_drain
        result = _drill_serve_drain(seed=0)
        assert result.passed, result.failures

    def test_restart_drill_passes(self):
        from repro.serve.drills import _drill_serve_restart
        result = _drill_serve_restart(seed=0)
        assert result.passed, result.failures
