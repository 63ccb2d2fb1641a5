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

* fill ≥ ``WIDEN_ABOVE``  → traffic saturates batches; widen the window
  (more coalescing, higher throughput) up to ``MAX_WINDOW``;
* fill ≤ ``SHRINK_BELOW`` → batches are mostly singletons; shrink toward
  ``MIN_WINDOW``, where every window starts.

The class is pure decision logic — no threads, no clock. The serving
layer wires ``observe_batch`` into the runner's ``on_batch`` hook and
copies :meth:`current` back into ``runner.max_wait``; tests drive it with
hand-picked sizes and assert the exact window trajectory.
"""

from __future__ import annotations

__all__ = ["AdaptiveWindow"]

MIN_WINDOW = 0.0005             # seconds; the measured bounds
MAX_WINDOW = 0.020
WIDEN_ABOVE = 0.5               # EWMA fill that widens
SHRINK_BELOW = 0.25             # EWMA fill that shrinks
GAIN = 2.0                      # multiplicative step
EWMA_ALPHA = 0.4                # fill-fraction smoothing


class AdaptiveWindow:
    """EWMA fill-fraction controller for the batching window."""

    def __init__(self, *, max_batch: int = 1):
        self.max_batch = max(int(max_batch), 1)
        self._window = MIN_WINDOW
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
        frac = min(max(size / self.max_batch, 0.0), 1.0)
        self._fill = (frac if self._fill is None
                      else EWMA_ALPHA * frac + (1 - EWMA_ALPHA) * self._fill)
        if self._fill >= WIDEN_ABOVE and self._window < MAX_WINDOW:
            self._window = min(self._window * GAIN, MAX_WINDOW)
            self.adjustments["widened"] += 1
        elif self._fill <= SHRINK_BELOW and self._window > MIN_WINDOW:
            self._window = max(self._window / GAIN, MIN_WINDOW)
            self.adjustments["shrunk"] += 1
        return self._window

    def snapshot(self) -> dict:
        return {"window_s": self._window, "fill_ewma": round(self.fill, 4),
                "widened": self.adjustments["widened"],
                "shrunk": self.adjustments["shrunk"]}
