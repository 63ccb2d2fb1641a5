"""RetryPolicy: a deterministic, bounded backoff schedule."""

import numpy as np
import pytest

from repro.resilience import RetryPolicy


class TestSchedule:
    def test_delays_are_deterministic_under_fixed_seed(self):
        a = RetryPolicy(max_attempts=6, jitter=0.25, seed=7)
        b = RetryPolicy(max_attempts=6, jitter=0.25, seed=7)
        assert a.delays() == b.delays()
        assert a.delay(3) == a.delay(3)  # pure function of (policy, attempt)

    def test_different_seeds_give_different_jitter(self):
        a = RetryPolicy(max_attempts=6, jitter=0.25, seed=0)
        b = RetryPolicy(max_attempts=6, jitter=0.25, seed=1)
        assert a.delays() != b.delays()

    def test_exponential_growth_and_cap_without_jitter(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, factor=2.0,
                             max_delay=0.5, jitter=0.0)
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, factor=1.0,
                             max_delay=1.0, jitter=0.2, seed=3)
        for delay in policy.delays():
            assert 0.1 <= delay <= 0.1 * 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)

    def test_jitter_draw_is_pure_numpy_seeded(self):
        # The jitter must come from a per-attempt seeded rng, not global
        # state: polluting the global rng must not change the schedule.
        policy = RetryPolicy(max_attempts=4, jitter=0.5, seed=11)
        before = policy.delays()
        np.random.seed(12345)
        assert policy.delays() == before

    def test_replica_config_derives_policy(self):
        from repro.serve import ReplicaConfig
        cfg = ReplicaConfig(max_respawns=4, respawn_base_delay_s=0.2)
        policy = cfg.retry_policy()
        assert policy.max_attempts == 5
        assert policy.max_delay == 1.0
        # Doubling from the base delay, capped at 1 s, with at most +10%
        # jitter.
        delays = policy.delays()
        for got, raw in zip(delays, [0.2, 0.4, 0.8, 1.0]):
            assert raw <= got <= raw * 1.1
        assert len(delays) == 4
        assert cfg.retry_policy().delays() == delays
