"""Binary tensor frames on every serving hop.

Covers the codec itself, both request encodings (binary body and legacy
``input`` list) on the in-process path and through a 2-replica fleet,
the frame limits (oversize or malformed ``input_shape``, a body cut
short by EOF), rid replay of a binary response, the pre-admission shape
and finiteness checks that keep a wrong-shape or NaN/Inf request away
from its batch-mates, and the ``queue_wait`` reservoir the batcher's
ticket stamps feed.
"""

import io
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.clock import FakeClock
from repro.infer import compile_model
from repro.io import load_model, save_model
from repro.models import build_model
from repro.qinfer import save_plan
from repro.serve import (ModelRegistry, ReplicaConfig, ReplicaRouter,
                         ReplicaSet, ReplicaSpec, ServeConfig, ServerThread,
                         SheddingConfig, wire)
from repro.serve.client import ServeClient, ServerError
from repro.verify.invariants import perturb_batchnorm_stats

SHAPE = (3, 8, 8)


def _tiny_model(seed=0):
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    model.eval()
    return model


def _samples(n, seed=0):
    return np.random.default_rng(seed).normal(
        size=(n,) + SHAPE).astype(np.float32)


def _poll(predicate, timeout_s=15.0, interval_s=0.005) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(interval_s)
    return True


def _raw_exchange(port, data: bytes, half_close=True) -> list[bytes]:
    """Write ``data`` on a fresh connection and return every line the
    server sends before it closes the connection. ``half_close`` sends
    EOF after ``data``; without it the server must hang up on its own
    (or the read times out)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            return stream.readlines()


class _GatedEngine:
    """Holds every batch until the test releases it."""

    def __init__(self, engine):
        self._engine = engine
        self.max_batch = engine.max_batch
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, x):
        self.entered.set()
        self.release.wait(timeout=30)
        return self._engine.run(x)


class TestCodec:
    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3, 4)])
    def test_pack_unpack_round_trips_bitwise(self, shape):
        array = np.random.default_rng(0).normal(size=shape).astype(
            np.float32)
        wire_shape, body = wire.pack(array)
        assert wire_shape == list(shape)
        assert len(body) == array.size * 4
        back = wire.unpack(wire_shape, bytes(body))
        assert back.shape == shape
        assert back.tobytes() == array.tobytes()

    def test_frame_round_trips_through_a_stream(self):
        array = np.arange(6, dtype=np.float32).reshape(2, 3)
        shape, body = wire.pack(array)
        data = (wire.encode({"op": "ping"})
                + wire.encode({"id": 1, "output_shape": shape}, body))
        stream = io.BytesIO(b"\n" + data)
        assert wire.read_frame(stream, "output_shape") == (
            {"op": "ping"}, None)
        header, raw = wire.read_frame(stream, "output_shape")
        assert header == {"id": 1, "output_shape": [2, 3]}
        np.testing.assert_array_equal(wire.unpack(shape, raw), array)
        with pytest.raises(ConnectionError):
            wire.read_frame(stream, "output_shape")

    def test_truncated_body_is_a_connection_error(self):
        data = wire.encode({"output_shape": [4]}, b"\x00" * 8)
        with pytest.raises(ConnectionError):
            wire.read_frame(io.BytesIO(data), "output_shape")

    @pytest.mark.parametrize("shape", ["3", [3, -1], [1.5], [True], None])
    def test_malformed_shapes_are_frame_errors(self, shape):
        with pytest.raises(wire.FrameError):
            wire.body_size({"input_shape": shape}, "input_shape")

    def test_body_limit(self):
        assert wire.body_size({"input_shape": [4, 4]}, "input_shape",
                              limit=64) == 64
        with pytest.raises(wire.FrameError):
            wire.body_size({"input_shape": [4, 5]}, "input_shape",
                           limit=64)
        assert wire.body_size({"op": "ping"}, "input_shape") is None

    def test_non_object_header_is_a_value_error(self):
        with pytest.raises(ValueError):
            wire.parse(b"[1, 2]")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("wire") / "m.npz"
    save_model(_tiny_model(), path)
    return path


@pytest.fixture(scope="module")
def reference(checkpoint):
    """Batch-1 engine of the checkpoint: what every answer must equal."""
    model = load_model(str(checkpoint)).eval()
    return compile_model(model, _samples(4, seed=9), max_batch=1)


@pytest.fixture(scope="module")
def local_server(checkpoint):
    registry = ModelRegistry(max_batch=1)
    registry.deploy("m", "v1", checkpoint=str(checkpoint))
    with registry, ServerThread(
            registry, ServeConfig(max_line_bytes=4096)) as srv:
        yield srv


@pytest.fixture(scope="module")
def fleet_server(checkpoint):
    rset = ReplicaSet(ReplicaConfig(replicas=2, max_batch=1))
    router = ReplicaRouter(
        rset, [ReplicaSpec("m", "v1", checkpoint=str(checkpoint))])
    registry = ModelRegistry(max_batch=1)
    registry.deploy("m", "v1", checkpoint=str(checkpoint))
    try:
        with registry, ServerThread(registry, ServeConfig(),
                                    router=router) as srv:
            yield srv
    finally:
        rset.close()


class TestEquivalence:
    @pytest.mark.parametrize("path", ["local", "fleet"])
    def test_binary_and_legacy_answers_equal_the_engine_bitwise(
            self, path, request, reference):
        srv = request.getfixturevalue(f"{path}_server")
        with ServeClient("127.0.0.1", srv.port) as client:
            for sample in _samples(4, seed=1):
                want = reference.run(sample[None])[0]
                binary = client.infer_verbose("m", sample)
                legacy = client.request({"op": "infer", "model": "m",
                                         "input": sample.tolist()})
                assert isinstance(binary["output"], np.ndarray)
                assert binary["output_shape"] == [3]
                assert binary["output"].tobytes() == want.tobytes()
                assert isinstance(legacy["output"], list)
                assert "output_shape" not in legacy
                assert np.asarray(legacy["output"], np.float32
                                  ).tobytes() == want.tobytes()
                if path == "fleet":
                    assert binary["served_by"].startswith("replica:")
                    assert legacy["served_by"].startswith("replica:")

    def test_legacy_reply_has_no_trailing_body(self, local_server):
        sample = _samples(1, seed=2)[0]
        line = json.dumps({"op": "infer", "model": "m",
                           "input": sample.tolist(), "id": "legacy"})
        lines = _raw_exchange(local_server.port, (
            line + "\n" + json.dumps({"op": "ping", "id": "after"})
            + "\n").encode())
        assert len(lines) == 2
        first, second = (json.loads(x) for x in lines)
        assert first["id"] == "legacy" and first["ok"]
        assert second == {"id": "after", "ok": True, "pong": True}

    def test_retried_rid_replays_the_same_output_bytes(self, local_server):
        sample = _samples(1, seed=3)[0]
        with ServeClient("127.0.0.1", local_server.port) as client:
            first = client.request({"op": "infer", "model": "m",
                                    "rid": "w:1"}, body=sample)
            again = client.request({"op": "infer", "model": "m",
                                    "rid": "w:1"}, body=sample)
        assert "replayed" not in first and again["replayed"] is True
        assert again["output"].tobytes() == first["output"].tobytes()


class TestFrameLimits:
    def _header(self, shape, **extra):
        return (json.dumps({"op": "infer", "model": "m", "id": "f",
                            "input_shape": shape, **extra})
                + "\n").encode()

    @pytest.mark.parametrize("shape", [[64, 64, 64], "3x8x8", [3, -8, 8],
                                       [3, 8.0, 8], [True, 8, 8]])
    def test_oversize_or_malformed_shape_is_refused_and_closes(
            self, local_server, shape):
        lines = _raw_exchange(local_server.port, self._header(shape),
                              half_close=False)
        assert len(lines) == 1
        reply = json.loads(lines[0])
        assert reply["ok"] is False and reply["error"] == "bad-request"
        assert reply["id"] == "f"

    def test_truncated_body_then_eof_leaves_nothing_in_flight(
            self, local_server):
        server = local_server.server
        before = server.stats()["models"]["m"]
        lines = _raw_exchange(local_server.port,
                              self._header(list(SHAPE)) + b"\x00" * 100)
        assert lines == []
        assert server.inflight == 0
        after = server.stats()["models"]["m"]
        # Never admitted, never queued: no ticket can be left behind.
        assert after["admission"]["admitted"] == \
            before["admission"]["admitted"]
        assert after["admission"]["pending"] == 0
        assert after["batcher"]["samples"] == before["batcher"]["samples"]
        # The server still serves after the aborted frame.
        with ServeClient("127.0.0.1", local_server.port) as client:
            assert client.infer("m", _samples(1)[0]).shape == (3,)

    def test_wrong_shape_body_is_a_bad_request_and_connection_survives(
            self, local_server):
        with ServeClient("127.0.0.1", local_server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.infer("m", np.zeros((3, 4, 4), np.float32))
            assert excinfo.value.error == "bad-request"
            assert client.ping()


def _poisoned(value, seed=0):
    sample = _samples(1, seed=seed)[0].copy()
    sample[1, 2, 3] = value
    return sample


class TestNonFiniteRefused:
    """NaN/Inf samples are ``bad-request`` (``reason: non-finite``) before
    admission, on the frontend and on a replica, for binary bodies and
    legacy ``input`` lists alike."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("encoding", ["binary", "legacy"])
    @pytest.mark.parametrize("path", ["local", "fleet"])
    def test_refused_before_admission(self, path, encoding, value, request,
                                      reference):
        srv = request.getfixturevalue(f"{path}_server")
        before = srv.server.stats()["models"]["m"]["admission"]["admitted"]
        sample = _poisoned(value)
        with ServeClient("127.0.0.1", srv.port) as client:
            with pytest.raises(ServerError) as excinfo:
                if encoding == "binary":
                    client.request({"op": "infer", "model": "m"},
                                   body=sample)
                else:
                    client.request({"op": "infer", "model": "m",
                                    "input": sample.tolist()})
            assert excinfo.value.error == "bad-request"
            assert excinfo.value.payload["reason"] == "non-finite"
            # The connection survives and the next good sample is served.
            good = _samples(1, seed=4)[0]
            assert client.infer("m", good).tobytes() == \
                reference.run(good[None])[0].tobytes()
        after = srv.server.stats()["models"]["m"]["admission"]["admitted"]
        assert after == before + 1          # only the good request

    def test_replica_refuses_a_non_finite_body(self, fleet_server):
        # Straight to a replica's socket, past the frontend's own check.
        router = fleet_server.server.router
        assert _poll(lambda: router.usable)
        path = str(router.set.handles[0].socket_path)
        sample = _poisoned(np.nan)
        shape, body = wire.pack(sample)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(path)
            with sock.makefile("rwb") as stream:
                stream.write(wire.encode({"op": "infer", "rid": "nf",
                                          "model": "m",
                                          "input_shape": shape}, body))
                stream.flush()
                reply, out = wire.read_frame(stream, "output_shape")
        assert out is None
        assert reply["rid"] == "nf" and reply["ok"] is False
        assert reply["error"] == "bad-request"
        assert reply["reason"] == "non-finite"

    def test_batch_mates_are_unaffected(self):
        batches = []

        def record(name, version, batch, outputs):
            batches.append(np.array(batch))

        registry = ModelRegistry(
            max_batch=8, on_batch=record,
            shedding=SheddingConfig(max_pending=64, p99_budget_ms=None))
        registry.deploy("m", "v1", model=_tiny_model(), input_shape=SHAPE)
        _, version = registry.resolve("m")
        gate = _GatedEngine(version.engine)
        version.runner.engine = gate
        samples = _samples(3, seed=6)
        answers, errors = {}, []

        def good(i):
            try:
                with ServeClient("127.0.0.1", srv.port) as client:
                    answers[i] = client.infer("m", samples[i])
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(repr(exc))

        with registry, ServerThread(registry, ServeConfig()) as srv:
            threads = [threading.Thread(target=good, args=(i,))
                       for i in range(3)]
            threads[0].start()
            assert gate.entered.wait(10)    # batch 1 parks in the engine
            for t in threads[1:]:
                t.start()
            assert _poll(lambda: srv.server.inflight == 3)
            with ServeClient("127.0.0.1", srv.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.infer("m", _poisoned(np.inf))
            gate.release.set()
            for t in threads:
                t.join(timeout=30)
            stats = srv.server.stats()

        assert not errors and len(answers) == 3
        assert excinfo.value.payload["reason"] == "non-finite"
        assert [len(b) for b in batches] == [1, 2]
        assert all(np.isfinite(b).all() for b in batches)
        assert stats["counters"]["errors"] == 0
        assert stats["counters"]["fallbacks"] == 0


def _int8_artifact(model, path):
    x = np.random.default_rng(0).normal(size=(8,) + SHAPE).astype(np.float32)
    engine = compile_model(model, x, max_batch=8, quantize="int8")
    save_plan(engine.plan, path)
    return path


class TestWrongShapeIsolation:
    """A wrong-shape request sent while good ones queue for the same
    batch must not fail, slow or degrade them — on a fp32 deploy (which
    has an eager fallback) and on an ``.rplan`` deploy (which has none)."""

    @pytest.mark.parametrize("deploy", ["fp32", "rplan"])
    def test_good_neighbours_are_answered_by_the_batch(self, deploy,
                                                       tmp_path):
        batches = []

        def record(name, version, batch, outputs):
            batches.append((np.array(batch), np.array(outputs)))

        registry = ModelRegistry(
            max_batch=8, on_batch=record,
            shedding=SheddingConfig(max_pending=64, p99_budget_ms=None))
        model = _tiny_model()
        if deploy == "fp32":
            registry.deploy("m", "v1", model=model, input_shape=SHAPE)
        else:
            registry.deploy("m", "v1", artifact=_int8_artifact(
                model, tmp_path / "m.rplan"))
        _, version = registry.resolve("m")
        gate = _GatedEngine(version.engine)
        version.runner.engine = gate
        samples = _samples(4, seed=5)
        answers, errors = {}, []

        def good(i):
            try:
                with ServeClient("127.0.0.1", srv.port) as client:
                    answers[i] = client.infer_verbose("m", samples[i])
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(repr(exc))

        def bad():
            try:
                with ServeClient("127.0.0.1", srv.port) as client:
                    client.infer("m", np.zeros((3, 4, 4), np.float32))
                errors.append("wrong-shape request was answered ok")
            except ServerError as exc:
                answers["bad"] = exc.error

        with registry, ServerThread(registry, ServeConfig()) as srv:
            threads = [threading.Thread(target=good, args=(0,))]
            threads[0].start()
            assert gate.entered.wait(10)    # batch 1 parks in the engine
            threads += [threading.Thread(target=good, args=(i,))
                        for i in range(1, 4)]
            for t in threads[1:]:
                t.start()
            assert _poll(lambda: srv.server.inflight == 4)
            offender = threading.Thread(target=bad)
            offender.start()
            offender.join(timeout=2)        # refused without the engine
            gate.release.set()
            for t in threads + [offender]:
                t.join(timeout=30)
            stats = srv.server.stats()

        assert not errors
        assert answers.pop("bad") == "bad-request"
        rows = {s.tobytes(): out for batch, outs in batches
                for s, out in zip(batch, outs)}
        for i, response in answers.items():
            assert response["served_by"] == "batch"
            assert response["output"].tobytes() == \
                rows[samples[i].tobytes()].tobytes()
        assert [len(b) for b, _ in batches] == [1, 3]
        assert stats["counters"]["fallbacks"] == 0
        assert stats["counters"]["errors"] == 0
        assert stats["models"]["m"]["degraded"] is False


class TestQueueWait:
    def test_server_records_exact_batch_start_minus_submit(self):
        # The registry's batchers run on a FakeClock: request A parks in
        # the gated engine, request B queues behind it while virtual
        # time moves 0.25 s, so B's queue wait is exactly 250 ms and A's
        # exactly 0 (max_batch=1: no straggler window is charged).
        clock = FakeClock()
        registry = ModelRegistry(
            max_batch=1, clock=clock,
            shedding=SheddingConfig(max_pending=8, p99_budget_ms=None))
        registry.deploy("m", "v1", model=_tiny_model(), input_shape=SHAPE)
        _, version = registry.resolve("m")
        gate = _GatedEngine(version.engine)
        version.runner.engine = gate
        samples = _samples(2, seed=6)

        def send(i):
            with ServeClient("127.0.0.1", srv.port) as client:
                client.infer("m", samples[i])

        with registry, ServerThread(registry, ServeConfig()) as srv:
            first = threading.Thread(target=send, args=(0,))
            first.start()
            assert gate.entered.wait(10)
            second = threading.Thread(target=send, args=(1,))
            second.start()
            assert _poll(lambda: srv.server.inflight == 2)
            clock.advance(0.25)
            gate.release.set()
            first.join(timeout=30)
            second.join(timeout=30)
            queue_wait = srv.server.stats()["queue_wait"]
        assert queue_wait["count"] == 2
        assert sorted(srv.server.metrics._queue_wait.samples()) == \
            [0.0, 250.0]
