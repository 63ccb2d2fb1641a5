"""RetryPolicy: deterministic backoff, exhaustion, exception filtering."""

import numpy as np
import pytest

from repro.resilience import RetryBudgetExhausted, RetryPolicy


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


class TestCall:
    def test_transient_failure_recovers_with_scheduled_sleeps(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.05, jitter=0.1,
                             seed=2)
        state = {"calls": 0}
        slept = []

        def flaky():
            state["calls"] += 1
            if state["calls"] < 3:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky, sleep=slept.append) == "ok"
        assert state["calls"] == 3
        assert slept == policy.delays()[:2]

    def test_exhaustion_raises_with_attempts_and_cause(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

        def always_fails():
            raise OSError("still down")

        with pytest.raises(RetryBudgetExhausted) as info:
            policy.call(always_fails, sleep=lambda _: None)
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, OSError)

    def test_non_matching_exception_propagates_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        state = {"calls": 0}
        slept = []

        def bug():
            state["calls"] += 1
            raise ValueError("programming error")

        with pytest.raises(ValueError, match="programming error"):
            policy.call(bug, retry_on=(OSError,), sleep=slept.append)
        assert state["calls"] == 1      # never retried
        assert slept == []

    def test_on_retry_observer_sees_every_failed_attempt(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        seen = []

        def always_fails():
            raise OSError("down")

        with pytest.raises(RetryBudgetExhausted):
            policy.call(always_fails, sleep=lambda _: None,
                        on_retry=lambda attempt, exc: seen.append(attempt))
        assert seen == [0, 1, 2]

    def test_replica_config_derives_policy(self):
        from repro.serve import ReplicaConfig
        cfg = ReplicaConfig(max_respawns=4, respawn_base_delay_s=0.02,
                            respawn_max_delay_s=0.1, respawn_seed=9)
        policy = cfg.retry_policy()
        assert policy.max_attempts == 5
        assert policy.max_delay == 0.1
        # Doubling from the base delay, capped, with at most +10% jitter.
        delays = policy.delays()
        for got, raw in zip(delays, [0.02, 0.04, 0.08, 0.1]):
            assert raw <= got <= raw * 1.1
        assert len(delays) == 4
        assert cfg.retry_policy().delays() == delays

    def test_jitter_draw_is_pure_numpy_seeded(self):
        # The jitter must come from a per-attempt seeded rng, not global
        # state: polluting the global rng must not change the schedule.
        policy = RetryPolicy(max_attempts=4, jitter=0.5, seed=11)
        before = policy.delays()
        np.random.seed(12345)
        assert policy.delays() == before
