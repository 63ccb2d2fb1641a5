"""Adaptive micro-batching window: wide under load, narrow when idle.

:class:`repro.infer.BatchRunner` holds a batch open for at most
``max_wait`` seconds after its first request, and closes it earlier once
no request has arrived for ``max_wait / 10``. A fixed window is always
wrong at one end: at low traffic a wide one adds latency, at high
traffic a too-short one (and its too-short idle gap) ships half-empty
batches and wastes the engine's throughput.

:class:`AdaptiveWindow` closes the loop. After every executed batch it
observes the *fill fraction* (batch size / ``max_batch``) through an
exponential moving average and steers the window multiplicatively:

* fill ≥ ``widen_above``  → traffic saturates batches; widen the window
  (more coalescing, higher throughput) up to ``max_window``;
* fill ≤ ``shrink_below`` → batches are mostly singletons; shrink toward
  ``min_window``.

The class is pure decision logic — no threads, no clock. The serving
layer wires ``observe_batch`` into the runner's ``on_batch`` hook and
copies :meth:`current` back into ``runner.max_wait``; tests drive it with
hand-picked sizes and assert the exact window trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WindowConfig", "AdaptiveWindow"]


@dataclass(frozen=True)
class WindowConfig:
    """Bounds and gains of the adaptive batching window (seconds)."""

    min_window: float = 0.0005
    max_window: float = 0.020
    initial_window: float | None = None     # default: min_window
    widen_above: float = 0.5                # EWMA fill that widens
    shrink_below: float = 0.25              # EWMA fill that shrinks
    gain: float = 2.0                       # multiplicative step
    ewma_alpha: float = 0.4                 # fill-fraction smoothing

    def __post_init__(self):
        if not 0 < self.min_window <= self.max_window:
            raise ValueError("need 0 < min_window <= max_window")
        if not 0 <= self.shrink_below < self.widen_above <= 1:
            raise ValueError("need 0 <= shrink_below < widen_above <= 1")
        if self.gain <= 1:
            raise ValueError("gain must be > 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")


class AdaptiveWindow:
    """EWMA fill-fraction controller for the batching window."""

    def __init__(self, config: WindowConfig | None = None, *,
                 max_batch: int = 1):
        self.config = config or WindowConfig()
        self.max_batch = max(int(max_batch), 1)
        self._window = float(self.config.initial_window
                             if self.config.initial_window is not None
                             else self.config.min_window)
        self._window = min(max(self._window, self.config.min_window),
                           self.config.max_window)
        self._fill: float | None = None      # EWMA of batch fill fraction
        self.adjustments = {"widened": 0, "shrunk": 0}

    def current(self) -> float:
        """The batching window the runner should use right now (seconds)."""
        return self._window

    @property
    def fill(self) -> float:
        """Smoothed batch fill fraction in [0, 1] (0 before any batch)."""
        return 0.0 if self._fill is None else self._fill

    def observe_batch(self, size: int) -> float:
        """Record one executed batch; returns the (possibly new) window."""
        cfg = self.config
        frac = min(max(size / self.max_batch, 0.0), 1.0)
        self._fill = (frac if self._fill is None
                      else cfg.ewma_alpha * frac
                      + (1 - cfg.ewma_alpha) * self._fill)
        if self._fill >= cfg.widen_above and self._window < cfg.max_window:
            self._window = min(self._window * cfg.gain, cfg.max_window)
            self.adjustments["widened"] += 1
        elif self._fill <= cfg.shrink_below and self._window > cfg.min_window:
            self._window = max(self._window / cfg.gain, cfg.min_window)
            self.adjustments["shrunk"] += 1
        return self._window

    def snapshot(self) -> dict:
        return {"window_s": self._window, "fill_ewma": round(self.fill, 4),
                "widened": self.adjustments["widened"],
                "shrunk": self.adjustments["shrunk"]}
