"""Tests for raw off-chip traffic accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import bitplane
from repro.bandwidth.traffic import (
    ancilla_flip_probability,
    expected_nonzero_syndrome_bits,
    syndrome_bits_per_cycle,
)
from repro.exceptions import ConfigurationError, InvalidProbabilityError
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.cycles import sample_cycle_planes
from repro.types import StabilizerType


class TestSyndromeBits:
    @pytest.mark.parametrize("distance, expected", [(3, 8), (5, 24), (21, 440)])
    def test_bits_per_cycle(self, distance, expected):
        assert syndrome_bits_per_cycle(distance) == expected

    def test_measurement_rounds_multiply(self):
        assert syndrome_bits_per_cycle(5, measurement_rounds=5) == 24 * 5

    def test_rejects_even_distance(self):
        with pytest.raises(ConfigurationError):
            syndrome_bits_per_cycle(4)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            syndrome_bits_per_cycle(5, measurement_rounds=0)


class TestFlipProbability:
    def test_zero_error_rate_never_flips(self):
        assert ancilla_flip_probability(4, 0.0, 0.0) == 0.0

    def test_pure_measurement_error(self):
        assert ancilla_flip_probability(4, 0.0, 0.25) == pytest.approx(0.25)

    def test_small_rate_approximation(self):
        # For small p the flip probability approaches (weight + 1) * p.
        p = 1e-4
        assert ancilla_flip_probability(4, p, p) == pytest.approx(5 * p, rel=0.01)

    def test_rejects_invalid_probability(self):
        with pytest.raises(InvalidProbabilityError):
            ancilla_flip_probability(4, -0.1, 0.0)

    def test_monotone_in_weight(self):
        assert ancilla_flip_probability(4, 0.01, 0.01) > ancilla_flip_probability(
            2, 0.01, 0.01
        )


class TestExpectedNonzeroBits:
    def test_matches_monte_carlo(self, code_d5):
        p = 0.02
        analytic = expected_nonzero_syndrome_bits(5, p)
        noise = PhenomenologicalNoise(p)
        rng = np.random.default_rng(1)
        total = 0.0
        cycles = 20_000
        for stype in StabilizerType:
            data, flips = sample_cycle_planes(code_d5, stype, noise, p, cycles, rng)
            check = bitplane.get_packed_parity_check(5, stype)
            signatures = check.syndromes(data[np.newaxis])[0] ^ flips
            total += bitplane.popcount(signatures) / cycles
        assert analytic == pytest.approx(total, rel=0.1)

    def test_scales_with_distance(self):
        assert expected_nonzero_syndrome_bits(9, 0.01) > expected_nonzero_syndrome_bits(
            5, 0.01
        )

    def test_measurement_rate_defaults_to_data_rate(self):
        assert expected_nonzero_syndrome_bits(5, 0.01) == pytest.approx(
            expected_nonzero_syndrome_bits(5, 0.01, 0.01)
        )
