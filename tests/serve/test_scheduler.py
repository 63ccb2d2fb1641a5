"""Adaptive batching window: exact trajectories, no threads, no clock.

The window runs at its module constants: a 0.5 ms floor (where it
starts), a 20 ms cap, gain 2, widen at an EWMA fill of 0.5 or more,
shrink at 0.25 or less, EWMA alpha 0.4.
"""

import pytest

from repro.serve import AdaptiveWindow


def _at_cap(max_batch=8):
    """A window widened from the floor to the 20 ms cap by full batches."""
    window = AdaptiveWindow(max_batch=max_batch)
    for _ in range(6):
        window.observe_batch(max_batch)
    assert window.current() == 0.02
    return window


class TestAdaptiveWindow:
    def test_starts_at_min_window_by_default(self):
        window = AdaptiveWindow(max_batch=8)
        assert window.current() == 0.0005
        assert window.fill == 0.0

    def test_full_batches_widen_to_the_cap_exactly(self):
        # The first batch sets the EWMA to its own fill (1.0); full
        # batches then widen multiplicatively each step from the 0.5 ms
        # floor: 1 → 2 → 4 → 8 → 16 → 20 ms, then hold at the cap.
        window = AdaptiveWindow(max_batch=8)
        trajectory = [window.observe_batch(8) for _ in range(7)]
        assert trajectory == [0.001, 0.002, 0.004, 0.008, 0.016, 0.02, 0.02]
        assert window.adjustments == {"widened": 6, "shrunk": 0}

    def test_singleton_batches_shrink_to_the_floor_exactly(self):
        window = _at_cap()
        trajectory = [window.observe_batch(1) for _ in range(10)]
        # EWMA fill 1 → 0.65 → 0.44 → 0.314 holds the cap; 0.238 is the
        # first fill at or below 0.25, and every later one stays there.
        assert trajectory == [0.02, 0.02, 0.02, 0.01, 0.005, 0.0025,
                              0.00125, 0.000625, 0.0005, 0.0005]
        assert window.adjustments == {"widened": 6, "shrunk": 6}

    def test_mid_band_fill_holds_the_window_steady(self):
        window = AdaptiveWindow(max_batch=8)
        window.observe_batch(8)                        # 1 ms, fill 1.0
        # fill 0.375 per batch: the EWMA falls 0.75 → 0.6 → 0.51 (each
        # still widens), then sits inside the band and the window holds.
        trajectory = [window.observe_batch(3) for _ in range(3)]
        assert trajectory == [0.002, 0.004, 0.008]
        for _ in range(10):
            assert window.observe_batch(3) == 0.008
        assert window.adjustments == {"widened": 4, "shrunk": 0}

    def test_ewma_smooths_the_fill_fraction(self):
        window = AdaptiveWindow(max_batch=4)
        window.observe_batch(4)                        # fill := 1.0
        window.observe_batch(1)                        # 0.4*0.25 + 0.6*1.0
        assert window.fill == pytest.approx(0.7)
        # Still above the widen threshold: one noisy singleton must not
        # shrink.
        assert window.adjustments["shrunk"] == 0

    def test_oversized_batch_clamps_fill_to_one(self):
        window = AdaptiveWindow(max_batch=4)
        window.observe_batch(100)
        assert window.fill == 1.0

    def test_snapshot_round_trips_the_state(self):
        window = AdaptiveWindow(max_batch=8)
        window.observe_batch(8)
        snap = window.snapshot()
        assert snap["window_s"] == window.current()
        assert snap["fill_ewma"] == pytest.approx(1.0)
        assert snap["widened"] == 1 and snap["shrunk"] == 0
