"""Bounded retries: backoff policies and the flaky-dataset wrapper.

Real systems fail transiently — a network filesystem hiccup, an evicted
cache shard, a worker process killed by the OOM killer. A single fault
should not kill an hours-long prune/fine-tune run, but an *unbounded*
retry loop would hang it forever on a persistent failure. Two tools
bound that trade-off:

* :class:`RetryPolicy` — a deterministic exponential-backoff schedule
  (bounded attempts, multiplicative growth, seeded jitter) used by the
  replica fleet (:class:`~repro.serve.ReplicaSet`) to pace respawns and by
  :meth:`RetryPolicy.call` to wrap arbitrary flaky callables;
* :class:`RetryingDataset` — a dataset view that retries transient
  ``__getitem__`` failures and then raises
  :class:`DataUnavailableError` naming the item and the attempt count
  (enabled by ``FrameworkConfig.loader_retries``).

Jitter is *deterministic*: attempt ``k`` of a policy seeded ``s`` always
draws the same jitter fraction, so retried runs stay reproducible and the
supervisor's recovery timeline can be replayed from its journal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data import Dataset

__all__ = ["DataUnavailableError", "RetryBudgetExhausted", "RetryPolicy",
           "RetryingDataset"]


class DataUnavailableError(RuntimeError):
    """An item stayed unreadable after exhausting the retry budget."""


class RetryBudgetExhausted(RuntimeError):
    """A retried operation kept failing after its final attempt.

    ``__cause__`` carries the last underlying exception; ``attempts``
    records how many times the operation ran.
    """

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded exponential backoff.

    Attributes
    ----------
    max_attempts:
        Total tries, including the first one (``max_attempts=3`` means
        one initial attempt plus up to two retries). Must be >= 1.
    base_delay:
        Seconds to wait before the first retry.
    factor:
        Multiplicative growth of the delay per retry.
    max_delay:
        Hard cap on any single delay.
    jitter:
        Fraction of the (capped) delay added as seeded noise in
        ``[0, jitter]`` — staggers simultaneous respawns without
        sacrificing reproducibility.
    seed:
        Jitter seed. A fixed ``(seed, attempt)`` pair always produces the
        same delay, so the whole schedule is a pure function of the
        policy.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1 (delays must not shrink)")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    # ------------------------------------------------------------------
    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based).

        Deterministic: the jitter for attempt ``k`` is drawn from an rng
        seeded with ``(seed, k)``, never from global state.
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        raw = min(self.base_delay * self.factor ** attempt, self.max_delay)
        if self.jitter == 0 or raw == 0:
            return raw
        fraction = float(np.random.default_rng((self.seed, attempt)).random())
        return raw * (1.0 + self.jitter * fraction)

    def delays(self) -> list[float]:
        """The full backoff schedule (one entry per possible retry)."""
        return [self.delay(k) for k in range(self.max_attempts - 1)]

    # ------------------------------------------------------------------
    def call(self, fn: Callable, *args,
             retry_on: tuple[type[BaseException], ...] = (Exception,),
             on_retry: Callable[[int, BaseException], None] | None = None,
             sleep: Callable[[float], None] = time.sleep, **kwargs):
        """Run ``fn(*args, **kwargs)`` under this policy.

        Only exceptions matching ``retry_on`` are retried; anything else
        propagates immediately (a programming error must not be masked by
        backoff). ``on_retry(attempt, exc)`` fires before each sleep.
        After the final attempt fails, :class:`RetryBudgetExhausted` is
        raised from the last exception.
        """
        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            try:
                return fn(*args, **kwargs)
            except retry_on as exc:
                last = exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                if attempt + 1 < self.max_attempts:
                    sleep(self.delay(attempt))
        raise RetryBudgetExhausted(
            f"{getattr(fn, '__name__', fn)!r} still failing after "
            f"{self.max_attempts} attempts: {last}",
            attempts=self.max_attempts) from last


class RetryingDataset(Dataset):
    """Dataset view that retries transient ``__getitem__`` failures.

    Parameters
    ----------
    dataset:
        The possibly-flaky source.
    max_retries:
        Additional attempts after the first failure; ``max_retries=3``
        means up to 4 reads per item.
    on_retry:
        Optional callback ``(index, attempt, exception)`` invoked on every
        failed attempt (logging/metrics hook).
    """

    def __init__(self, dataset: Dataset, max_retries: int = 3,
                 on_retry: Callable[[int, int, Exception], None] | None = None):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.dataset = dataset
        self.max_retries = max_retries
        self.on_retry = on_retry
        self.retried = 0  # total failed attempts that were retried

    def __len__(self) -> int:
        return len(self.dataset)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        last: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                return self.dataset[index]
            except Exception as exc:  # noqa: BLE001 - retry any read fault
                last = exc
                if self.on_retry is not None:
                    self.on_retry(index, attempt, exc)
                if attempt < self.max_retries:
                    self.retried += 1
        raise DataUnavailableError(
            f"item {index} unreadable after {self.max_retries + 1} attempts: "
            f"{last}") from last

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels
