"""Serving fault drills for ``python -m repro.verify --drills serve``.

Eight drills, run against a *real* socket server in-process, extend the
resilience battery to the serving layer:

* ``serve.shed`` — offered load at 2× the admission bound: every
  *accepted* request must complete correctly, every rejection must be
  explicit (``error: "overloaded"`` with a reason) and fast, and nothing
  may simply vanish;
* ``serve.swap`` — a checkpoint hot-swap in the middle of live traffic:
  zero dropped and zero errored requests, every response valid against
  the old or the new model, and the registry must end up on the new
  version with the old one drained;
* ``serve.drain`` — a graceful drain with requests in flight: every
  accepted request completes correctly, every request arriving during
  the drain gets an explicit ``draining`` answer, zero drops;
* ``serve.restart`` — a warm restart from the deploy manifest: every
  journaled version comes back through probe validation, a corrupted
  checkpoint is skipped *with a report*, and the restored server answers
  correctly;
* ``serve.frame`` — hostile frames while good traffic flows: a body cut
  short by EOF, a body over the size limit, a wrong-shape sample and a
  NaN/Inf sample are each refused without touching the batcher, and every good request is
  answered bitwise equal to the batch the engine ran, with zero
  fallbacks and nothing left in flight;
* ``serve.replica.kill`` — SIGKILL of a replica mid-batch under live
  traffic: every accepted request completes exactly once,
  bitwise-identical to an unfaulted run, and the dead replica respawns
  within budget;
* ``serve.replica.hang`` — a wedged replica (healthy heartbeat, dead
  serving path): the router's liveness probe times out, the replica is
  killed and respawned, and traffic never notices;
* ``serve.replica.rolling`` — a rolling deploy across the replica fleet
  under live traffic: zero drops, capacity never below N−1, and a
  gate-failing checkpoint leaves every replica on the old version.

Each drill returns an unnamed :class:`~repro.resilience.drills.DrillResult`;
the battery's table in :func:`repro.resilience.drills.run_drills` names
it.

All timing goes through the injectable :data:`repro.clock.SYSTEM_CLOCK`
(the drills poll real threads, so virtual time would lie) — consistent
with the rest of the serve stack, and swappable in one place.

Like the worker drills, these guard *recovery semantics*, not speed —
they use tiny models and finish in seconds.
"""

from __future__ import annotations

import socket
import tempfile
import threading
from pathlib import Path

import numpy as np

from ..clock import SYSTEM_CLOCK
from ..models import build_model
from ..resilience.drills import DrillResult
from ..tensor import Tensor, inference_mode
from ..verify.invariants import perturb_batchnorm_stats
from . import wire
from .client import Draining, Overloaded, ServeClient, ServerError
from .manifest import restore_registry
from .registry import ModelRegistry
from .server import ServeConfig, ServerThread
from .shedding import SheddingConfig

_CLOCK = SYSTEM_CLOCK


def _tiny_model(seed: int, pruned: bool = False):
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    if pruned:
        from ..infer.bench import _prune_model
        _prune_model(model, seed)
    model.eval()
    return model


class _SlowEngine:
    """Engine wrapper that makes every batch take a while (queues form)."""

    def __init__(self, engine, delay_s: float):
        self._engine = engine
        self._delay = delay_s
        self.max_batch = engine.max_batch

    def run(self, x):
        _CLOCK.sleep(self._delay)
        return self._engine.run(x)


class _GatedEngine:
    """Engine wrapper that holds every batch until the drill releases it."""

    def __init__(self, engine):
        self._engine = engine
        self.max_batch = engine.max_batch
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, x):
        self.entered.set()
        self.release.wait(timeout=30)
        return self._engine.run(x)


def _ref_engine(checkpoint, seed: int):
    """A local max_batch=1 engine from ``checkpoint``: the unfaulted
    reference a replicated answer must match bitwise (batch size 1 keeps
    batch composition from perturbing BLAS accumulation order)."""
    from ..infer import compile_model
    from ..io import load_model
    model = load_model(str(checkpoint))
    model.eval()
    probe = np.random.default_rng(seed).normal(
        size=(4, 3, 8, 8)).astype(np.float32)
    return compile_model(model, probe, max_batch=1)


def _wedge_replica(handle) -> None:
    """Freeze a replica's serving path over its own unix socket (the
    ``chaos`` op): heartbeats keep flowing, requests stop — the exact
    failure a liveness probe exists to catch."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(5.0)
        sock.connect(str(handle.socket_path))
        sock.sendall(b'{"op": "chaos", "wedged": true, "rid": "drill"}\n')
        sock.recv(4096)                 # ack lands before the wedge bites


def _poll_until(predicate, timeout_s: float = 10.0,
                interval_s: float = 0.005) -> bool:
    """Spin on the system clock until ``predicate()`` or the deadline."""
    deadline = _CLOCK.monotonic() + timeout_s
    while not predicate():
        if _CLOCK.monotonic() >= deadline:
            return False
        _CLOCK.sleep(interval_s)
    return True


def _drill_serve_shed(seed: int):
    result = DrillResult()
    max_pending = 4
    registry = ModelRegistry(
        max_batch=4,
        shedding=SheddingConfig(max_pending=max_pending,
                                p99_budget_ms=None))
    model = _tiny_model(seed)
    with registry:
        registry.deploy("m", "v1", model=model, input_shape=(3, 8, 8),
                        seed=seed)
        _, version = registry.resolve("m")
        version.runner.engine = _SlowEngine(version.engine, delay_s=0.02)

        workers = 2 * max_pending          # offered load 2× the bound
        per_worker = 6
        lock = threading.Lock()
        outcomes = {"completed": 0, "rejected": 0, "errors": 0,
                    "unanswered": 0, "bad_output": 0}
        reject_ms: list[float] = []

        def eager(sample):
            with inference_mode():
                return model(Tensor(sample[None])).data[0]

        def client_loop(wid: int):
            rng = np.random.default_rng(seed * 997 + wid)
            local = dict.fromkeys(outcomes, 0)
            local_rej = []
            try:
                with ServeClient("127.0.0.1", port) as client:
                    for _ in range(per_worker):
                        sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                        start = _CLOCK.monotonic()
                        try:
                            out = client.infer("m", sample)
                            if not np.allclose(out, eager(sample),
                                               rtol=1e-4, atol=1e-5):
                                local["bad_output"] += 1
                            local["completed"] += 1
                        except Overloaded as exc:
                            local_rej.append(
                                (_CLOCK.monotonic() - start) * 1e3)
                            if exc.reason not in ("queue-full", "slo"):
                                local["errors"] += 1
                            local["rejected"] += 1
                        except (ServerError, ConnectionError):
                            local["errors"] += 1
            except OSError:
                local["unanswered"] += per_worker
            with lock:
                for key in outcomes:
                    outcomes[key] += local[key]
                reject_ms.extend(local_rej)

        with ServerThread(registry, ServeConfig()) as srv:
            port = srv.port
            threads = [threading.Thread(target=client_loop, args=(i,))
                       for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

    total = workers * per_worker
    answered = outcomes["completed"] + outcomes["rejected"]
    if outcomes["unanswered"] or answered + outcomes["errors"] != total:
        result.fail(f"requests vanished: {outcomes} (total {total})")
    if outcomes["errors"]:
        result.fail(f"{outcomes['errors']} non-shed errors under overload")
    if outcomes["bad_output"]:
        result.fail(f"{outcomes['bad_output']} accepted requests returned "
                    "wrong outputs")
    if not outcomes["rejected"]:
        result.fail("2x offered load produced no explicit rejections")
    if reject_ms and float(np.median(np.asarray(reject_ms))) >= 10.0:
        result.fail(f"rejections are slow: median "
                    f"{float(np.median(np.asarray(reject_ms))):.1f} ms")
    result.detail = (f"{outcomes['completed']} served, "
                     f"{outcomes['rejected']} shed fast, 0 dropped")
    return result


def _drill_serve_swap(seed: int):
    result = DrillResult()
    from ..io import save_model

    dense = _tiny_model(seed)
    pruned = _tiny_model(seed, pruned=True)

    def eager(model, sample):
        with inference_mode():
            return model(Tensor(sample[None])).data[0]

    registry = ModelRegistry(max_batch=8,
                             shedding=SheddingConfig(max_pending=64,
                                                     p99_budget_ms=None))
    with tempfile.TemporaryDirectory() as tmp, registry:
        checkpoint = Path(tmp) / "pruned.npz"
        save_model(pruned, checkpoint)
        registry.deploy("m", "v1", model=dense, input_shape=(3, 8, 8),
                        seed=seed)

        stop = threading.Event()
        lock = threading.Lock()
        failures: list[str] = []
        served = {"total": 0, "v1": 0, "v2": 0}

        def traffic(wid: int):
            rng = np.random.default_rng(seed * 131 + wid)
            try:
                with ServeClient("127.0.0.1", port) as client:
                    while not stop.is_set():
                        sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                        response = client.infer_verbose("m", sample)
                        out = np.asarray(response["output"], np.float32)
                        version = response["model"].split("@")[1]
                        reference = eager(
                            dense if version == "v1" else pruned, sample)
                        with lock:
                            served["total"] += 1
                            served[version] = served.get(version, 0) + 1
                            if not np.allclose(out, reference, rtol=1e-4,
                                               atol=1e-5):
                                failures.append(
                                    f"wrong output from {version}")
            except (ServerError, ConnectionError, OSError) as exc:
                with lock:
                    failures.append(f"traffic error: {exc}")

        with ServerThread(registry, ServeConfig()) as srv:
            port = srv.port
            threads = [threading.Thread(target=traffic, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            try:
                with ServeClient("127.0.0.1", port) as control:
                    # Let traffic establish before, and continue after,
                    # the swap — the swap must be invisible to callers.
                    _poll_until(lambda: served["total"] >= 20 or failures,
                                timeout_s=30)
                    report = control.swap("m", "v2", str(checkpoint))
                    _poll_until(lambda: served.get("v2", 0) >= 10 or failures,
                                timeout_s=10)
                    stats = control.stats()
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30)

        if failures:
            result.fail("; ".join(sorted(set(failures))[:3]))
        if report["swapped_from"] != "v1":
            result.fail(f"swap report wrong: {report}")
        if served.get("v2", 0) == 0:
            result.fail("no traffic reached v2 after the swap")
        if stats["counters"]["errors"]:
            result.fail(f"server recorded {stats['counters']['errors']} "
                        "errors across the swap")
        active = stats["models"]["m"]["active"]
        if active != "m@v2":
            result.fail(f"active version is {active!r}, expected m@v2")
    result.detail = (f"{served['total']} responses "
                     f"({served.get('v1', 0)} v1 / {served.get('v2', 0)} v2),"
                     f" 0 dropped across swap")
    return result


def _drill_serve_drain(seed: int):
    result = DrillResult()
    registry = ModelRegistry(max_batch=4,
                             shedding=SheddingConfig(max_pending=64,
                                                     p99_budget_ms=None))
    model = _tiny_model(seed)
    inflight_workers = 3
    with registry:
        registry.deploy("m", "v1", model=model, input_shape=(3, 8, 8),
                        seed=seed)
        _, version = registry.resolve("m")
        gate = _GatedEngine(version.engine)
        version.runner.engine = gate

        def eager(sample):
            with inference_mode():
                return model(Tensor(sample[None])).data[0]

        lock = threading.Lock()
        outcomes: dict[int, str] = {}
        rng = np.random.default_rng(seed * 607)
        samples = rng.normal(size=(inflight_workers, 3, 8, 8)
                             ).astype(np.float32)

        def inflight(wid: int):
            try:
                with ServeClient("127.0.0.1", port) as client:
                    out = client.infer("m", samples[wid])
                    ok = np.allclose(out, eager(samples[wid]),
                                     rtol=1e-4, atol=1e-5)
                    verdict = "ok" if ok else "bad-output"
            except Exception as exc:  # noqa: BLE001 - collected for report
                verdict = f"error: {type(exc).__name__}"
            with lock:
                outcomes[wid] = verdict

        with ServerThread(registry, ServeConfig()) as srv:
            port = srv.port
            threads = [threading.Thread(target=inflight, args=(i,))
                       for i in range(inflight_workers)]
            for t in threads:
                t.start()
            # All three requests accepted (and stuck at the engine gate).
            if not _poll_until(lambda: srv.server.inflight
                               >= inflight_workers):
                result.fail("in-flight requests never reached the engine")
            # A connection opened before the listener closes can still
            # talk to a draining server — and must be told "draining".
            # (The ping forces the accept: a merely-backlogged socket
            # would die with the listener instead of being answered.)
            late = ServeClient("127.0.0.1", port)
            late.ping()
            drainer = threading.Thread(target=srv.drain)
            drainer.start()
            try:
                if not _poll_until(lambda: srv.server.draining):
                    result.fail("drain never entered the draining state")
                try:
                    late.infer("m", samples[0])
                    result.fail("request during drain was not rejected")
                except Draining:
                    pass
                except Exception as exc:  # noqa: BLE001 - wrong rejection
                    result.fail(f"draining rejection was {exc!r}, "
                                "not an explicit 'draining' error")
            finally:
                gate.release.set()
                drainer.join(timeout=30)
                late.close()
                for t in threads:
                    t.join(timeout=30)
            metrics = srv.server.metrics
        if drainer.is_alive():
            result.fail("drain did not complete after the gate opened")
        completed = sum(1 for v in outcomes.values() if v == "ok")
        if completed != inflight_workers:
            result.fail(f"accepted requests dropped by drain: {outcomes}")
        if not metrics.reject_reasons.get("draining"):
            result.fail("no explicit 'draining' rejection was recorded")
    result.detail = (f"{completed}/{inflight_workers} in-flight served, "
                     f"{metrics.reject_reasons.get('draining', 0)} "
                     "drain-rejected, 0 dropped")
    return result


def _drill_serve_restart(seed: int):
    result = DrillResult()
    from ..io import save_model

    dense = _tiny_model(seed)
    pruned = _tiny_model(seed, pruned=True)

    def eager(model, sample):
        with inference_mode():
            return model(Tensor(sample[None])).data[0]

    with tempfile.TemporaryDirectory() as tmp:
        manifest_dir = Path(tmp) / "manifest"
        pruned_ckpt = Path(tmp) / "pruned.npz"
        doomed_ckpt = Path(tmp) / "doomed.npz"
        save_model(pruned, pruned_ckpt)
        save_model(dense, doomed_ckpt)

        with ModelRegistry(manifest_dir=manifest_dir) as registry:
            registry.deploy("a", "v1", model=dense, input_shape=(3, 8, 8),
                            seed=seed)          # snapshotted into manifest
            registry.deploy("b", "v1", checkpoint=pruned_ckpt)
            registry.deploy("c", "v1", checkpoint=doomed_ckpt)

        # The process "dies"; one checkpoint rots on disk meanwhile.
        raw = bytearray(doomed_ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        doomed_ckpt.write_bytes(bytes(raw))

        with ModelRegistry(manifest_dir=manifest_dir) as restored:
            report = restore_registry(restored, manifest_dir)
            names = {e["name"] for e in report.restored}
            if names != {"a", "b"}:
                result.fail(f"expected a+b restored, got {sorted(names)}")
            skipped = {e["name"]: e["reason"] for e in report.skipped}
            if "c" not in skipped:
                result.fail("corrupted checkpoint was not skipped")
            elif "CheckpointCorrupt" not in skipped["c"]:
                result.fail(f"skip reason does not name the corruption: "
                            f"{skipped['c']}")
            if report.journal_truncated:
                result.fail("manifest journal unexpectedly truncated")

            rng = np.random.default_rng(seed * 911)
            sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
            with ServerThread(restored, ServeConfig()) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    for name, reference in (("a", dense), ("b", pruned)):
                        out = client.infer(name, sample)
                        if not np.allclose(out, eager(reference, sample),
                                           rtol=1e-4, atol=1e-5):
                            result.fail(f"restored {name} answers wrongly")
                    try:
                        client.infer("c", sample)
                        result.fail("corrupted model is being served")
                    except ServerError as exc:
                        if exc.error != "no-such-model":
                            result.fail(f"unexpected error for skipped "
                                        f"model: {exc.error}")
    result.detail = (f"{len(report.restored)} restored through validation, "
                     f"{len(report.skipped)} skipped with report")
    return result


def _raw_frame(port: int, header: dict, body: bytes = b"") -> list[bytes]:
    """Send one raw frame on a fresh connection, half-close it, and
    return every reply line read before the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(wire.encode(header, body))
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            return stream.readlines()


def _drill_serve_frame(seed: int):
    result = DrillResult()
    limit = 4096
    lock = threading.Lock()
    executed: dict[bytes, np.ndarray] = {}

    def record(name, version, batch, outputs):
        with lock:
            for sample, row in zip(batch, outputs):
                executed[np.ascontiguousarray(sample).tobytes()] = \
                    np.array(row, copy=True)

    registry = ModelRegistry(
        max_batch=4, on_batch=record,
        shedding=SheddingConfig(max_pending=64, p99_budget_ms=None))
    answered: list[tuple[np.ndarray, np.ndarray]] = []
    failures: list[str] = []
    hostile = {"truncated": 0, "oversize": 0, "wrong-shape": 0,
               "non-finite": 0}
    stop = threading.Event()

    def traffic(wid: int):
        rng = np.random.default_rng(seed * 389 + wid)
        try:
            with ServeClient("127.0.0.1", port) as client:
                while not stop.is_set():
                    sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                    out = client.infer("m", sample)
                    with lock:
                        answered.append((sample, out))
        except (ServerError, ConnectionError, OSError) as exc:
            with lock:
                failures.append(f"good request failed: {exc!r}")

    with registry:
        registry.deploy("m", "v1", model=_tiny_model(seed),
                        input_shape=(3, 8, 8), seed=seed)
        with ServerThread(registry,
                          ServeConfig(max_line_bytes=limit)) as srv:
            port = srv.port
            threads = [threading.Thread(target=traffic, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            try:
                header = {"op": "infer", "model": "m"}
                for _ in range(4):
                    # A body cut short by EOF: no answer, nothing queued.
                    if _raw_frame(port, {**header, "input_shape": [3, 8, 8]},
                                  b"\x00" * 100):
                        result.fail("truncated frame was answered")
                    hostile["truncated"] += 1
                    # A body over the limit: refused, connection closed.
                    reply = _raw_frame(port, {**header,
                                              "input_shape": [64, 64, 64]})
                    if len(reply) != 1 or b"bad-request" not in reply[0]:
                        result.fail(f"oversize frame answered {reply!r}")
                    hostile["oversize"] += 1
                    # A well-formed body of the wrong sample shape.
                    with ServeClient("127.0.0.1", port) as client:
                        try:
                            client.infer("m", np.zeros((3, 4, 4), np.float32))
                            result.fail("wrong-shape request was served")
                        except ServerError as exc:
                            if exc.error != "bad-request":
                                result.fail(f"wrong-shape request got "
                                            f"{exc.error}")
                    hostile["wrong-shape"] += 1
                    # A well-formed body holding a NaN and an Inf.
                    poisoned = np.zeros((3, 8, 8), np.float32)
                    poisoned[0, 0, :2] = (np.nan, np.inf)
                    with ServeClient("127.0.0.1", port) as client:
                        try:
                            client.infer("m", poisoned)
                            result.fail("non-finite request was served")
                        except ServerError as exc:
                            if exc.payload.get("reason") != "non-finite":
                                result.fail(f"non-finite request got "
                                            f"{exc.payload!r}")
                    hostile["non-finite"] += 1
                _poll_until(lambda: len(answered) >= 40 or failures)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30)
            _poll_until(lambda: srv.server.inflight == 0)
            inflight = srv.server.inflight
            stats = srv.server.stats()

    bad = sum(1 for sample, out in answered
              if not np.array_equal(out, executed.get(sample.tobytes())))
    if failures:
        result.fail("; ".join(sorted(set(failures))[:3]))
    if not answered:
        result.fail("no good request was answered")
    if bad:
        result.fail(f"{bad} good responses differ bitwise from the batch "
                    "the engine ran")
    if stats["counters"]["fallbacks"]:
        result.fail(f"{stats['counters']['fallbacks']} eager fallbacks")
    if stats["models"]["m"]["degraded"]:
        result.fail("hostile frames degraded the line")
    if inflight:
        result.fail(f"{inflight} requests left in flight")
    result.detail = (f"{len(answered)} good answered bitwise alongside "
                     f"{sum(hostile.values())} hostile frames, 0 fallbacks")
    return result


def _drill_serve_replica_kill(seed: int):
    result = DrillResult()
    from ..io import save_model
    from .replica import ReplicaConfig, ReplicaSet, ReplicaSpec
    from .router import ReplicaRouter

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "m.npz"
        save_model(_tiny_model(seed), checkpoint)
        reference = _ref_engine(checkpoint, seed)

        config = ReplicaConfig(replicas=2, max_batch=1, engine_delay_ms=5.0,
                               probe_interval_s=0.1, probe_timeout_s=1.0,
                               respawn_base_delay_s=0.01)
        rset = ReplicaSet(config)
        router = ReplicaRouter(
            rset, [ReplicaSpec("m", "v1", checkpoint=str(checkpoint))])
        registry = ModelRegistry(max_batch=1)
        registry.deploy("m", "v1", checkpoint=str(checkpoint), seed=seed)

        workers, per_worker = 4, 8
        total = workers * per_worker
        lock = threading.Lock()
        answered: list[tuple[np.ndarray, np.ndarray]] = []
        failures: list[str] = []

        def traffic(wid: int):
            rng = np.random.default_rng(seed * 613 + wid)
            try:
                with ServeClient("127.0.0.1", port, timeout=60) as client:
                    for _ in range(per_worker):
                        sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                        out = client.infer("m", sample)
                        with lock:
                            answered.append((sample, out))
            except (ServerError, ConnectionError, OSError) as exc:
                with lock:
                    failures.append(f"traffic error: {exc!r}")

        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                port = srv.port
                threads = [threading.Thread(target=traffic, args=(i,))
                           for i in range(workers)]
                for t in threads:
                    t.start()
                _CLOCK.sleep(0.05)
                rset.handles[0].proc.kill()     # SIGKILL mid-batch
                for t in threads:
                    t.join(timeout=60)
                with ServeClient("127.0.0.1", port) as control:
                    stats = control.stats()
        finally:
            rset.close()

    # Verify serially: the compiled reference engine reuses scratch
    # buffers, so it is checked from one thread only.
    bitwise = sum(1 for sample, out in answered
                  if np.array_equal(out, reference.run(sample[None])[0]))
    if failures:
        result.fail("; ".join(sorted(set(failures))[:3]))
    if len(answered) != total:
        result.fail(f"{total - len(answered)} of {total} accepted "
                    "requests never completed")
    if bitwise != len(answered):
        result.fail(f"{len(answered) - bitwise} responses differ bitwise "
                    "from the unfaulted engine")
    if stats["counters"]["completed"] != total:
        result.fail(f"server completed {stats['counters']['completed']} != "
                    f"{total} requests: lost or double-counted work")
    kinds = [e.kind for e in rset.events]
    if "respawn" not in kinds:
        result.fail(f"killed replica never respawned (events: {kinds})")
    if stats["replicas"]["degraded"]:
        result.fail("fleet degraded after a single in-budget kill")
    result.detail = (f"{bitwise}/{total} bitwise-identical "
                     f"across SIGKILL, {rset.respawns_used} respawn")
    return result


def _drill_serve_replica_hang(seed: int):
    result = DrillResult()
    from ..io import save_model
    from .replica import ReplicaConfig, ReplicaSet, ReplicaSpec
    from .router import ReplicaRouter

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "m.npz"
        save_model(_tiny_model(seed), checkpoint)
        reference = _ref_engine(checkpoint, seed)

        config = ReplicaConfig(replicas=2, max_batch=1, engine_delay_ms=2.0,
                               probe_interval_s=0.05, probe_timeout_s=0.3,
                               respawn_base_delay_s=0.01, allow_chaos=True)
        rset = ReplicaSet(config)
        router = ReplicaRouter(
            rset, [ReplicaSpec("m", "v1", checkpoint=str(checkpoint))])
        registry = ModelRegistry(max_batch=1)
        registry.deploy("m", "v1", checkpoint=str(checkpoint), seed=seed)

        workers, per_worker = 4, 10
        total = workers * per_worker
        lock = threading.Lock()
        answered: list[tuple[np.ndarray, np.ndarray]] = []
        failures: list[str] = []

        def traffic(wid: int):
            rng = np.random.default_rng(seed * 821 + wid)
            try:
                with ServeClient("127.0.0.1", port, timeout=60) as client:
                    for _ in range(per_worker):
                        sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                        out = client.infer("m", sample)
                        with lock:
                            answered.append((sample, out))
            except (ServerError, ConnectionError, OSError) as exc:
                with lock:
                    failures.append(f"traffic error: {exc!r}")

        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                port = srv.port
                threads = [threading.Thread(target=traffic, args=(i,))
                           for i in range(workers)]
                for t in threads:
                    t.start()
                _CLOCK.sleep(0.05)
                # The replica's process stays alive and its heartbeat keeps
                # flowing — only the serving path freezes. The supervisor
                # watchdog can't see this; the router's liveness probe must.
                _wedge_replica(rset.handles[1])
                for t in threads:
                    t.join(timeout=60)
                if not _poll_until(lambda: "respawn" in
                                   [e.kind for e in rset.events],
                                   timeout_s=15):
                    result.fail("wedged replica was never respawned")
        finally:
            rset.close()

    bitwise = sum(1 for sample, out in answered
                  if np.array_equal(out, reference.run(sample[None])[0]))
    if failures:
        result.fail("; ".join(sorted(set(failures))[:3]))
    if len(answered) != total:
        result.fail(f"{total - len(answered)} of {total} requests "
                    "lost behind the wedged replica")
    if bitwise != len(answered):
        result.fail(f"{len(answered) - bitwise} responses differ bitwise "
                    "after failover")
    kinds = [e.kind for e in rset.events]
    if "hang" not in kinds:
        result.fail(f"probe never declared the wedged replica hung "
                    f"(events: {kinds})")
    result.detail = (f"{bitwise}/{total} served across a wedged "
                     f"replica; probe killed + respawned it")
    return result


def _drill_serve_replica_rolling(seed: int):
    result = DrillResult()
    from ..io import save_model
    from .replica import ReplicaConfig, ReplicaSet, ReplicaSpec
    from .router import ReplicaRouter

    dense = _tiny_model(seed)
    pruned = _tiny_model(seed, pruned=True)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt_v1 = Path(tmp) / "v1.npz"
        ckpt_v2 = Path(tmp) / "v2.npz"
        ckpt_bad = Path(tmp) / "bad.npz"
        save_model(dense, ckpt_v1)
        save_model(pruned, ckpt_v2)
        save_model(dense, ckpt_bad)
        raw = bytearray(ckpt_bad.read_bytes())
        raw[len(raw) // 2] ^= 0xFF      # rot the gate-failing artifact
        ckpt_bad.write_bytes(bytes(raw))

        references = {"v1": _ref_engine(ckpt_v1, seed),
                      "v2": _ref_engine(ckpt_v2, seed)}

        config = ReplicaConfig(replicas=2, max_batch=1, engine_delay_ms=2.0,
                               probe_interval_s=0.1, probe_timeout_s=1.0)
        rset = ReplicaSet(config)
        router = ReplicaRouter(
            rset, [ReplicaSpec("m", "v1", checkpoint=str(ckpt_v1))])
        registry = ModelRegistry(max_batch=1)
        registry.deploy("m", "v1", checkpoint=str(ckpt_v1), seed=seed)

        stop = threading.Event()
        lock = threading.Lock()
        served = {"total": 0, "v1": 0, "v2": 0}
        failures: list[str] = []
        capacity = {"min": config.replicas}

        answered: list[tuple[str, np.ndarray, np.ndarray]] = []

        def traffic(wid: int):
            rng = np.random.default_rng(seed * 577 + wid)
            try:
                with ServeClient("127.0.0.1", port, timeout=60) as client:
                    while not stop.is_set():
                        sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                        response = client.infer_verbose("m", sample)
                        out = np.asarray(response["output"], np.float32)
                        version = response["model"].split("@")[1]
                        with lock:
                            served["total"] += 1
                            served[version] = served.get(version, 0) + 1
                            answered.append((version, sample, out))
            except (ServerError, ConnectionError, OSError) as exc:
                with lock:
                    failures.append(f"traffic error: {exc!r}")

        def watch_capacity():
            # Sampled invariant: a rolling deploy drains one replica at a
            # time, so routable capacity must never dip below N-1.
            while not stop.is_set():
                routable = sum(1 for p in router._peers
                               if p.alive and p.routable)
                with lock:
                    capacity["min"] = min(capacity["min"], routable)
                _CLOCK.sleep(0.002)

        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                port = srv.port
                threads = [threading.Thread(target=traffic, args=(i,))
                           for i in range(4)]
                threads.append(threading.Thread(target=watch_capacity))
                for t in threads:
                    t.start()
                rejected = None
                try:
                    with ServeClient("127.0.0.1", port) as control:
                        _poll_until(lambda: served["total"] >= 10 or failures,
                                    timeout_s=30)
                        rolling = control.request(
                            {"op": "swap", "name": "m", "version": "v2",
                             "checkpoint": str(ckpt_v2)}).get("rolling")
                        _poll_until(lambda: served.get("v2", 0) >= 10
                                    or failures, timeout_s=15)
                        try:
                            control.request(
                                {"op": "swap", "name": "m", "version": "v3",
                                 "checkpoint": str(ckpt_bad)})
                            result.fail("gate-failing checkpoint deployed")
                        except ServerError as exc:
                            rejected = exc
                        stats = control.stats()
                finally:
                    stop.set()
                    for t in threads:
                        t.join(timeout=30)
        finally:
            rset.close()

    bad = sum(1 for version, sample, out in answered
              if not np.array_equal(
                  out, references[version].run(sample[None])[0]))
    if bad:
        result.fail(f"{bad} responses differ bitwise from their version's "
                    "reference engine")
    if failures:
        result.fail("; ".join(sorted(set(failures))[:3]))
    if not rolling or not rolling.get("ok"):
        result.fail(f"rolling deploy did not succeed: {rolling}")
    elif sorted(rolling.get("updated", [])) != [0, 1]:
        result.fail(f"rolling updated {rolling.get('updated')}, not both")
    if served.get("v2", 0) == 0:
        result.fail("no traffic reached v2 after the rolling deploy")
    if capacity["min"] < config.replicas - 1:
        result.fail(f"routable capacity dipped to {capacity['min']} "
                    f"(< N-1 = {config.replicas - 1})")
    if rejected is not None and rejected.error != "swap-rejected":
        result.fail(f"bad artifact failed oddly: {rejected.error}")
    models = {rid: (entry.get("models") or {}).get("m")
              for rid, entry in stats["replicas"]["per_replica"].items()}
    if any(ref != "m@v2" for ref in models.values()):
        result.fail(f"aborted roll left mixed versions: {models}")
    if stats["models"]["m"]["active"] != "m@v2":
        result.fail("frontend registry diverged from the fleet after abort")
    result.detail = (f"{served['total']} responses "
                     f"({served.get('v1', 0)} v1 / {served.get('v2', 0)} v2) "
                     f"across roll, min capacity {capacity['min']}, "
                     f"bad artifact rejected fleet-wide")
    return result
