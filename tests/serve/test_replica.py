"""Replicated serving tier: replica processes, health-probed router.

Three layers, cheapest first:

* pure-unit coverage of :class:`ReplicaSpec` / :class:`ReplicaConfig`,
  the router's ``probe_scan`` (fake peers, no sockets, no clock) and its
  per-replica circuit breaker (on a :class:`FakeClock`);
* :class:`ReplicaSet` process lifecycle — spawn, ledgered artifacts,
  kill/respawn within budget, budget exhaustion;
* end-to-end through a real server + fleet: bitwise answers, SIGKILL
  failover, degrade-to-local with ``stop_reason``, rolling deploy.
"""

import time
from pathlib import Path

import numpy as np

from repro.clock import FakeClock
from repro.infer import compile_model
from repro.io import load_model, save_model
from repro.models import build_model
from repro.serve import (ModelRegistry, ReplicaConfig, ReplicaRouter,
                         ReplicaSet, ReplicaSpec, ServeConfig, ServerThread,
                         reaper)
from repro.serve.client import ServeClient
from repro.serve.router import CircuitBreaker
from repro.verify.invariants import perturb_batchnorm_stats


def _tiny_model(seed=0, pruned=False):
    model = build_model("vgg11", num_classes=3, image_size=8, width=0.125,
                        seed=seed)
    perturb_batchnorm_stats(model, seed=seed)
    if pruned:
        from repro.infer.bench import _prune_model
        _prune_model(model, seed)
    model.eval()
    return model


def _checkpoint(tmp_path, name="m.npz", seed=0, pruned=False) -> Path:
    path = Path(tmp_path) / name
    save_model(_tiny_model(seed, pruned=pruned), path)
    return path


def _ref_engine(checkpoint, seed=0):
    model = load_model(str(checkpoint))
    model.eval()
    probe = np.random.default_rng(seed).normal(
        size=(4, 3, 8, 8)).astype(np.float32)
    return compile_model(model, probe, max_batch=1)


def _poll(predicate, timeout_s=15.0, interval_s=0.01) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(interval_s)
    return True


class TestSpecAndConfig:
    def test_spec_ref_and_deploy_payload(self):
        spec = ReplicaSpec("m", "v2", checkpoint="/tmp/m.npz")
        assert spec.ref == "m@v2"
        payload = spec.deploy_payload()
        assert payload["op"] == "deploy"
        assert payload["name"] == "m"
        assert payload["version"] == "v2"
        assert payload["checkpoint"] == "/tmp/m.npz"

    def test_retry_policy_is_bounded_by_the_respawn_budget(self):
        config = ReplicaConfig(max_respawns=2, respawn_base_delay_s=0.5)
        policy = config.retry_policy()
        assert policy.max_attempts == 3          # budget + the first spawn
        assert policy.delay(5) <= 1.0 * 1.1      # capped (plus jitter)


class _FakeWriter:
    def __init__(self):
        self.lines = []

    def is_closing(self):
        return False

    def write(self, data):
        self.lines.append(data)


class _FakeHandle:
    def __init__(self, replica_id):
        self.replica_id = replica_id
        self.generation = 1
        self.restarts = 0
        self.kill_reason = None


class _FakeSet:
    """Just enough ReplicaSet surface for the router's probe machinery."""

    def __init__(self, config, seats=2):
        self.config = config
        self.handles = [_FakeHandle(i) for i in range(seats)]
        self.killed = []

    def kill(self, replica_id, reason, kind="hang"):
        self.killed.append((replica_id, kind))


class TestProbeScanDeterministic:
    """probe_scan(now) is pure state-machine: drive it with bare floats."""

    def _router(self, **config_kw):
        config_kw.setdefault("probe_timeout_s", 1.0)
        fake = _FakeSet(ReplicaConfig(**config_kw))
        router = ReplicaRouter(fake, [])
        for peer in router._peers:
            peer.alive = True
            peer.routable = True
            peer.writer = _FakeWriter()
        return router, fake

    def test_scan_sends_one_ping_per_routable_peer(self):
        router, fake = self._router()
        router._peers[1].routable = False
        router.probe_scan(now=100.0)
        assert router._peers[0].probe_rid is not None
        assert router._peers[0].probe_sent_at == 100.0
        assert len(router._peers[0].writer.lines) == 1
        assert b'"ping"' in router._peers[0].writer.lines[0]
        assert router._peers[1].probe_rid is None   # unroutable: skipped

    def test_answered_probe_closes_the_loop_and_rearms(self):
        router, fake = self._router()
        peer = router._peers[0]
        router.probe_scan(now=0.0)
        rid = peer.probe_rid
        router._on_reply(peer, {"rid": rid, "pong": True})
        assert peer.probe_rid is None
        assert peer.breaker.state == "closed"
        router.probe_scan(now=0.5)                  # re-arms immediately
        assert peer.probe_rid is not None
        assert peer.probe_rid != rid
        assert fake.killed == []

    def test_unanswered_probe_past_timeout_kills_as_hang(self):
        router, fake = self._router(probe_timeout_s=1.0)
        peer = router._peers[0]
        router._peers[1].routable = False       # isolate peer 0
        router.probe_scan(now=0.0)
        router.probe_scan(now=0.999)                # within budget: waits
        assert fake.killed == []
        router.probe_scan(now=1.0)                  # at the limit: hang
        assert fake.killed == [(0, "hang")]
        assert peer.breaker.consecutive_failures == 1

    def test_in_flight_probe_is_not_doubled(self):
        router, fake = self._router(probe_timeout_s=10.0)
        peer = router._peers[0]
        router.probe_scan(now=0.0)
        router.probe_scan(now=1.0)
        assert len(peer.writer.lines) == 1          # one outstanding ping


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=5.0,
                                 clock=clock)
        for _ in range(2):
            breaker.on_failure()
            assert breaker.state == "closed" and breaker.allow()
        breaker.on_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.on_failure()
        breaker.on_success()
        breaker.on_failure()
        assert breaker.state == "closed"    # streak broken; not 2 in a row

    def test_cooldown_admits_exactly_one_half_open_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                                 clock=clock)
        breaker.on_failure()
        assert not breaker.allow()
        clock.advance(9.999)
        assert not breaker.allow()          # still cooling
        clock.advance(0.001)
        assert breaker.allow()              # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()          # second caller blocked

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                                 clock=clock)
        breaker.on_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.on_success()
        assert breaker.state == "closed" and breaker.allow()

        breaker.on_failure()                # trip again
        clock.advance(10.0)
        assert breaker.allow()
        breaker.on_failure()                # the probe failed
        assert breaker.state == "open"
        assert not breaker.allow()          # cooldown restarted
        clock.advance(10.0)
        assert breaker.allow()


class TestReplicaSetLifecycle:
    def _config(self, tmp_path, **kw):
        kw.setdefault("replicas", 2)
        kw.setdefault("max_batch", 1)
        kw.setdefault("respawn_base_delay_s", 0.01)
        return ReplicaConfig(**kw)

    def test_spawn_registers_artifacts_and_close_reclaims(self, tmp_path):
        rset = ReplicaSet(self._config(tmp_path))
        try:
            assert _poll(lambda: all(
                h.socket_path.exists() and h.pid_path.exists()
                for h in rset.handles))
            entries = reaper.live_paths()
            # Socket dir + per-replica socket and pid file, all ledgered
            # so a crashed parent's sweep can reclaim them.
            assert len(entries) >= 1 + 2 * len(rset.handles)
            paths = [h.socket_path for h in rset.handles]
        finally:
            rset.close()
        assert all(not p.exists() for p in paths)
        assert not reaper.live_paths()
        assert all(not h.alive for h in rset.handles)

    def test_kill_and_respawn_replaces_the_seat(self, tmp_path):
        rset = ReplicaSet(self._config(tmp_path))
        try:
            assert _poll(lambda: rset.handles[0].socket_path.exists())
            old_generation = rset.handles[0].generation
            rset.kill(0, reason="test kill", kind="crash")
            assert _poll(lambda: not rset.handles[0].alive)
            assert rset.respawn(0) is True
            handle = rset.handles[0]
            assert handle.generation > old_generation
            assert _poll(lambda: handle.alive and
                         handle.socket_path.exists())
            assert rset.respawns_used == 1
            kinds = [e.kind for e in rset.events]
            assert "crash" in kinds and "respawn" in kinds
        finally:
            rset.close()

    def test_respawn_budget_exhaustion_emits_degrade(self, tmp_path):
        rset = ReplicaSet(self._config(tmp_path, max_respawns=0))
        try:
            rset.kill(0, reason="test kill", kind="crash")
            assert _poll(lambda: not rset.handles[0].alive)
            assert rset.respawn(0) is False
            assert rset.respawns_used == 0
            assert "degrade" in [e.kind for e in rset.events]
        finally:
            rset.close()


class TestReplicatedServing:
    """End-to-end: client -> server -> router -> replica fleet."""

    def _stack(self, tmp_path, **config_kw):
        checkpoint = _checkpoint(tmp_path)
        config_kw.setdefault("replicas", 2)
        config_kw.setdefault("max_batch", 1)
        config_kw.setdefault("respawn_base_delay_s", 0.01)
        config_kw.setdefault("probe_interval_s", 0.1)
        rset = ReplicaSet(ReplicaConfig(**config_kw))
        router = ReplicaRouter(
            rset, [ReplicaSpec("m", "v1", checkpoint=str(checkpoint))])
        registry = ModelRegistry(max_batch=1)
        registry.deploy("m", "v1", checkpoint=str(checkpoint), seed=0)
        return checkpoint, rset, router, registry

    def test_replicated_answers_are_bitwise_and_attributed(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(tmp_path)
        reference = _ref_engine(checkpoint)
        rng = np.random.default_rng(7)
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    for _ in range(6):
                        sample = rng.normal(size=(3, 8, 8)).astype(
                            np.float32)
                        response = client.infer_verbose("m", sample)
                        assert response["served_by"].startswith("replica:")
                        assert response["model"] == "m@v1"
                        out = np.asarray(response["output"], np.float32)
                        assert np.array_equal(
                            out, reference.run(sample[None])[0])
                    stats = client.stats()
                fleet = stats["replicas"]
                assert fleet["degraded"] is False
                assert fleet["fleet"]["counters"]["completed"] == 6
                assert stats["counters"]["completed"] == 6
        finally:
            rset.close()

    def test_sigkill_failover_serves_every_request_once(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(
            tmp_path, engine_delay_ms=5.0)
        reference = _ref_engine(checkpoint)
        rng = np.random.default_rng(11)
        answered = []
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    for i in range(8):
                        if i == 2:
                            rset.handles[0].proc.kill()
                        sample = rng.normal(size=(3, 8, 8)).astype(
                            np.float32)
                        answered.append((sample, c.infer("m", sample)))
                    stats = c.stats()
        finally:
            rset.close()
        assert len(answered) == 8
        for sample, out in answered:
            assert np.array_equal(out, reference.run(sample[None])[0])
        assert stats["counters"]["completed"] == 8       # exactly once
        assert "respawn" in [e.kind for e in rset.events]
        assert stats["replicas"]["degraded"] is False

    def test_degrade_to_local_sets_stop_reason(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(
            tmp_path, max_respawns=0)
        reference = _ref_engine(checkpoint)
        rng = np.random.default_rng(13)
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                    first = c.infer_verbose("m", sample)
                    assert first["served_by"].startswith("replica:")

                    rset.handles[0].proc.kill()
                    assert _poll(lambda: router.degraded)
                    after = c.infer_verbose("m", sample)
                    # Served, correctly, by the in-process fallback path.
                    assert not after["served_by"].startswith("replica:")
                    assert np.array_equal(
                        np.asarray(after["output"], np.float32),
                        reference.run(sample[None])[0])
                    stats = c.stats()
                assert stats["lifecycle"]["replicas_degraded"] is True
                assert stats["lifecycle"]["stop_reason"] == \
                    "replicas-degraded"
        finally:
            rset.close()

    def test_rolling_deploy_moves_the_whole_fleet(self, tmp_path):
        checkpoint, rset, router, registry = self._stack(tmp_path)
        ckpt_v2 = _checkpoint(tmp_path, name="v2.npz", pruned=True)
        reference_v2 = _ref_engine(ckpt_v2)
        rng = np.random.default_rng(17)
        try:
            with registry, ServerThread(registry, ServeConfig(),
                                        router=router) as srv:
                with ServeClient("127.0.0.1", srv.port, timeout=60) as c:
                    response = c.request(
                        {"op": "swap", "name": "m", "version": "v2",
                         "checkpoint": str(ckpt_v2)})
                    assert response["rolling"]["ok"] is True
                    assert sorted(response["rolling"]["updated"]) == [0, 1]
                    sample = rng.normal(size=(3, 8, 8)).astype(np.float32)
                    after = c.infer_verbose("m", sample)
                    assert after["model"] == "m@v2"
                    assert np.array_equal(
                        np.asarray(after["output"], np.float32),
                        reference_v2.run(sample[None])[0])
                    stats = c.stats()
                models = {rid: entry.get("models", {}).get("m")
                          for rid, entry in
                          stats["replicas"]["per_replica"].items()}
                assert models == {"0": "m@v2", "1": "m@v2"}
                assert stats["models"]["m"]["active"] == "m@v2"
                assert "rolling" in [e.kind for e in rset.events]
        finally:
            rset.close()
