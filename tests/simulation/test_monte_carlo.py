"""Tests for Monte-Carlo statistics helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.monte_carlo import wilson_interval


class TestWilsonInterval:
    def test_contains_the_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_bounds_are_probabilities(self):
        low, high = wilson_interval(0, 50)
        assert 0.0 <= low <= high <= 1.0

    def test_zero_successes_lower_bound_is_zero(self):
        low, _high = wilson_interval(0, 100)
        assert low == 0.0

    def test_all_successes_upper_bound_is_one(self):
        _low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0)

    def test_interval_narrows_with_more_trials(self):
        small = wilson_interval(10, 100)
        large = wilson_interval(1000, 10_000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)

