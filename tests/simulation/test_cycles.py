"""Tests for the packed per-cycle signature sampler (Fig. 4 workload)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import bitplane
from repro.codes import PAPER_OPERATING_POINTS
from repro.codes.rotated_surface import get_code
from repro.exceptions import ConfigurationError
from repro.noise.models import CodeCapacityNoise, PhenomenologicalNoise
from repro.simulation.cycles import (
    classify_cycle_planes,
    sample_cycle_planes,
    simulate_signature_distribution,
)
from repro.types import StabilizerType


def _dense_draws(code, stype, noise, flip_rate, cycles, seed):
    """The two draws of ``sample_cycle_planes`` as one dense call each."""
    rng = np.random.default_rng(seed)
    data = noise.sample_data_matrix(code, cycles, rng)
    flips = rng.random((cycles, code.num_ancillas_of_type(stype))) < flip_rate
    return data, flips


class TestSampling:
    def test_shapes(self, code_d5, rng):
        noise = PhenomenologicalNoise(0.01)
        data, flips = sample_cycle_planes(
            code_d5, StabilizerType.X, noise, 0.01, 100, rng
        )
        assert data.shape == (code_d5.num_data_qubits, 2)
        assert flips.shape == (code_d5.num_ancillas_of_type(StabilizerType.X), 2)
        assert data.dtype == flips.dtype == np.uint64

    def test_zero_noise_gives_empty_planes(self, code_d5, rng):
        noise = PhenomenologicalNoise(0.0)
        data, flips = sample_cycle_planes(code_d5, StabilizerType.X, noise, 0.0, 50, rng)
        assert not data.any() and not flips.any()

    @pytest.mark.parametrize(
        "distance,cycles", [(3, 1), (5, 63), (21, 2500), (21, 5000), (81, 200)]
    )
    def test_row_blocks_equal_one_dense_draw(self, distance, cycles, stype):
        # d=21 crosses row blocks (the last one ragged); d=81 draws one
        # word of rows per block.
        code = get_code(distance)
        noise = PhenomenologicalNoise(0.05)
        planes = sample_cycle_planes(
            code, stype, noise, 0.02, cycles, np.random.default_rng(distance)
        )
        dense = _dense_draws(code, stype, noise, 0.02, cycles, distance)
        for packed, bits in zip(planes, dense):
            assert np.array_equal(packed, bitplane.pack_trials(bits))

    @pytest.mark.parametrize("cycles", [0, -5])
    def test_distribution_rejects_nonpositive_cycles(self, code_d5, cycles):
        # Zero cycles used to return an all-zero distribution (fig04 printed
        # rows of 0%), and negative ones failed later with an unrelated message.
        with pytest.raises(ConfigurationError, match="num_cycles must be positive"):
            simulate_signature_distribution(
                code_d5, PhenomenologicalNoise(0.01), cycles, rng=1
            )

    def test_distribution_rejects_nonpositive_batch_size(self, code_d5):
        with pytest.raises(ConfigurationError, match="batch_size must be positive"):
            simulate_signature_distribution(
                code_d5, PhenomenologicalNoise(0.01), 100, rng=1, batch_size=0
            )

    def test_reproducible_with_seed(self, code_d3):
        noise = PhenomenologicalNoise(0.02)
        first, second = (
            sample_cycle_planes(
                code_d3, StabilizerType.X, noise, 0.02, 50, np.random.default_rng(123)
            )
            for _ in range(2)
        )
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestClassification:
    @pytest.mark.parametrize("cycles", [1, 64, 500, 1025])
    def test_partition_covers_every_cycle(self, code_d5, cycles):
        noise = PhenomenologicalNoise(0.02)
        planes = sample_cycle_planes(
            code_d5, StabilizerType.X, noise, 0.02, cycles, np.random.default_rng(3)
        )
        zeros, locals_, complex_ = classify_cycle_planes(
            code_d5, StabilizerType.X, *planes, cycles
        )
        assert not (zeros & locals_).any()
        assert not (zeros & complex_).any()
        assert not (locals_ & complex_).any()
        assert np.array_equal(
            zeros | locals_ | complex_, bitplane.trial_mask_words(cycles)
        )

    def test_quiet_cycles_are_all_zeros(self, code_d3):
        words = bitplane.num_words(4)
        data = np.zeros((code_d3.num_data_qubits, words), dtype=np.uint64)
        flips = np.zeros(
            (code_d3.num_ancillas_of_type(StabilizerType.X), words), dtype=np.uint64
        )
        zeros, locals_, complex_ = classify_cycle_planes(
            code_d3, StabilizerType.X, data, flips, 4
        )
        assert np.array_equal(zeros, bitplane.trial_mask_words(4))
        assert not locals_.any()
        assert not complex_.any()


class TestDistribution:
    def test_counts_sum_to_cycles(self, code_d5):
        noise = PhenomenologicalNoise(0.01)
        dist = simulate_signature_distribution(code_d5, noise, 5000, rng=7)
        assert dist.all_zeros + dist.local_ones + dist.complex_ == 5000
        assert dist.trivial_fraction + dist.complex_fraction == pytest.approx(1.0)

    def test_low_error_rate_is_mostly_all_zeros(self, code_d5):
        noise = PhenomenologicalNoise(1e-4)
        dist = simulate_signature_distribution(code_d5, noise, 5000, rng=8)
        assert dist.all_zeros_fraction > 0.9

    def test_trivial_fraction_exceeds_90_percent_at_practical_points(self, code_d7):
        # The motivating observation of Section 3.
        noise = PhenomenologicalNoise(1e-3)
        dist = simulate_signature_distribution(code_d7, noise, 10_000, rng=9)
        assert dist.trivial_fraction > 0.9

    def test_complex_fraction_grows_with_error_rate(self, code_d7):
        low = simulate_signature_distribution(
            code_d7, PhenomenologicalNoise(1e-3), 10_000, rng=10
        )
        high = simulate_signature_distribution(
            code_d7, PhenomenologicalNoise(1e-2), 10_000, rng=11
        )
        assert high.complex_fraction > low.complex_fraction

    def test_batching_does_not_change_totals(self, code_d3):
        noise = CodeCapacityNoise(0.05)
        small_batches = simulate_signature_distribution(
            code_d3, noise, 3000, rng=12, batch_size=100
        )
        assert small_batches.cycles == 3000

    def test_as_row_is_flat_and_consistent(self, code_d3):
        dist = simulate_signature_distribution(
            code_d3, PhenomenologicalNoise(0.01), 1000, rng=13
        )
        row = dist.as_row()
        assert row["code_distance"] == 3.0
        assert row["all_zeros_fraction"] == pytest.approx(dist.all_zeros_fraction)


#: ``(all_zeros, local_ones, complex_)`` over 2000 cycles, seed 4, per paper
#: operating point with d <= 31 (fig04's default grid) and stabilizer type.
SIGNATURE_PINS = {
    (25, StabilizerType.X): (24, 1840, 136),
    (25, StabilizerType.Z): (24, 1835, 141),
    (7, StabilizerType.X): (1859, 141, 0),
    (7, StabilizerType.Z): (1859, 141, 0),
    (21, StabilizerType.X): (1038, 959, 3),
    (21, StabilizerType.Z): (1038, 959, 3),
    (5, StabilizerType.X): (1967, 33, 0),
    (5, StabilizerType.Z): (1967, 33, 0),
    (15, StabilizerType.X): (1697, 303, 0),
    (15, StabilizerType.Z): (1697, 302, 1),
}


class TestFrozenPins:
    """Seeded Fig. 4 counts, frozen so a rewrite of the sampler (e.g. onto
    bitplanes) must reproduce the dense int64 path's draws and labels."""

    @pytest.mark.parametrize(
        "point",
        [point for point in PAPER_OPERATING_POINTS if point.code_distance <= 31],
        ids=lambda point: f"p{point.physical_error_rate:g}-d{point.code_distance}",
    )
    def test_signature_distribution(self, point, stype):
        dist = simulate_signature_distribution(
            get_code(point.code_distance),
            PhenomenologicalNoise(point.physical_error_rate),
            2000,
            stype=stype,
            rng=4,
        )
        assert (dist.all_zeros, dist.local_ones, dist.complex_) == SIGNATURE_PINS[
            (point.code_distance, stype)
        ]
