"""The sparse tile sampler behind every memory-experiment history.

Per 64-trial tile the sampler draws a binomial error count and a uniform
subset of positions (``repro.noise.models.sample_positions``), data field
first, then flip field.  These tests pin that the result is distributed as
dense i.i.d. Bernoulli(p) noise, that it lands in the right bits of the
packed planes (padding included), and that the batch engine and the loop
oracle draw the very same errors for every chunking.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.noise.models import (
    PACKED_SAMPLE_TILE,
    CodeCapacityNoise,
    PhenomenologicalNoise,
    sample_positions,
)
from repro.simulation.batch import run_memory_experiment_batch
from repro.simulation.memory import run_memory_experiment
from repro.types import StabilizerType

X = StabilizerType.X


def _cascade(code, stype):
    return DecoderCascade(code, stype, tiers=("clique", "mwpm"))


def _z(hits: int, entries: int, p: float) -> float:
    return (hits - entries * p) / math.sqrt(entries * p * (1.0 - p))


def _tile_counts(noise, code, tiles: int, rounds: int, seed: int):
    """Per-tile (data, flip) error counts over ``tiles`` full tiles."""
    counts = np.array(
        [
            (data.size, flips.size)
            for _, data, flips in noise.sample_error_tiles(
                code, X, tiles * PACKED_SAMPLE_TILE, rounds,
                np.random.default_rng(seed),
            )
        ]
    )
    return counts[:, 0], counts[:, 1]


class TestPerEntryRate:
    @pytest.mark.parametrize(
        "p, trials", [(1e-3, 8192), (1e-2, 2048), (0.3, 512)]
    )
    def test_rate_matches_p(self, p, trials):
        code, rounds = get_code(5), 5
        noise = PhenomenologicalNoise(p, p / 2)
        data, flips = noise.sample_history_packed(
            code, X, trials, rounds, np.random.default_rng(2024)
        )
        data_entries = trials * rounds * code.num_data_qubits
        flip_entries = trials * rounds * code.num_ancillas_of_type(X)
        assert abs(_z(bitplane.popcount(data), data_entries, p)) < 4
        assert abs(_z(bitplane.popcount(flips), flip_entries, p / 2)) < 4

    def test_every_trial_slot_and_plane_is_equally_likely(self):
        # A layout slip (trial and plane axes swapped, a biased bit) shows up
        # as a lopsided histogram over the 64 trial slots or the planes.
        code, rounds, trials, p = get_code(3), 3, 64 * 400, 0.05
        data, _ = PhenomenologicalNoise(p).sample_history(
            code, X, trials, rounds, np.random.default_rng(5)
        )
        for counts in (
            data.reshape(-1, PACKED_SAMPLE_TILE, rounds * code.num_data_qubits)
            .sum(axis=(0, 2)),
            data.sum(axis=0).reshape(-1),
        ):
            expected = counts.sum() / counts.size
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            dof = counts.size - 1
            assert chi2 < dof + 5 * math.sqrt(2 * dof)


class TestTileCounts:
    @pytest.mark.parametrize("p", [1e-3, 1e-2, 0.3])
    def test_count_mean_and_variance_are_binomial(self, p):
        code, rounds, tiles = get_code(3), 3, 2000
        data_counts, flip_counts = _tile_counts(
            PhenomenologicalNoise(p), code, tiles, rounds, seed=11
        )
        for counts, qubits in (
            (data_counts, code.num_data_qubits),
            (flip_counts, code.num_ancillas_of_type(X)),
        ):
            entries = PACKED_SAMPLE_TILE * rounds * qubits
            mean, var = entries * p, entries * p * (1 - p)
            assert abs(counts.mean() - mean) < 4 * math.sqrt(var / tiles)
            # Sample-variance standard error, with the binomial kurtosis.
            kurtosis_excess = (1 - 6 * p * (1 - p)) / var
            var_se = var * math.sqrt(2 / (tiles - 1) + kurtosis_excess / tiles)
            assert abs(counts.var(ddof=1) - var) < 5 * var_se

    def test_no_correlation_across_tiles_or_fields(self):
        code, rounds, tiles = get_code(5), 5, 4000
        data_counts, flip_counts = _tile_counts(
            PhenomenologicalNoise(2e-2), code, tiles, rounds, seed=3
        )
        bound = 4 / math.sqrt(tiles)
        assert abs(np.corrcoef(data_counts[:-1], data_counts[1:])[0, 1]) < bound
        assert abs(np.corrcoef(flip_counts[:-1], flip_counts[1:])[0, 1]) < bound
        assert abs(np.corrcoef(data_counts, flip_counts)[0, 1]) < bound
        assert abs(np.corrcoef(flip_counts[:-1], data_counts[1:])[0, 1]) < bound


class TestRaggedTiles:
    @pytest.mark.parametrize("trials", [1, 37, 63, 64])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_padding_bits_stay_zero(self, trials, p):
        code, rounds = get_code(5), 4
        data, flips = PhenomenologicalNoise(p).sample_history_packed(
            code, X, trials, rounds, np.random.default_rng(9)
        )
        assert data.shape == (rounds, code.num_data_qubits, 1)
        assert flips.shape == (rounds, code.num_ancillas_of_type(X), 1)
        padding = ~bitplane.trial_mask_words(trials)
        assert not (data & padding).any()
        assert not (flips & padding).any()
        if p == 1.0:
            assert bitplane.popcount(data) == trials * data[..., 0].size
            assert bitplane.popcount(flips) == trials * flips[..., 0].size

    @pytest.mark.parametrize("trials", [1, 37, 63, 64, 65, 130])
    def test_tiles_cover_the_trials_once(self, trials):
        tiles = [
            tile
            for tile, _, _ in PhenomenologicalNoise(0.1).sample_error_tiles(
                get_code(3), X, trials, 3, np.random.default_rng(0)
            )
        ]
        assert sum(tiles) == trials
        assert all(tile == PACKED_SAMPLE_TILE for tile in tiles[:-1])


class TestEdgeRates:
    def test_zero_rate_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        data, flips = PhenomenologicalNoise(0.0).sample_history_packed(
            get_code(5), X, 130, 5, rng
        )
        assert not data.any() and not flips.any()
        assert rng.bit_generator.state == state

    def test_unit_rate_sets_every_bit_and_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        data, flips = PhenomenologicalNoise(1.0).sample_history(
            get_code(5), X, 130, 5, rng
        )
        assert data.all() and flips.all()
        assert rng.bit_generator.state == state

    def test_vanishing_rate_neither_overflows_nor_sets_bits(self):
        positions = sample_positions(2**62, 1e-300, np.random.default_rng(4))
        assert positions.dtype == np.int64 and positions.size == 0
        data, flips = PhenomenologicalNoise(1e-300).sample_history_packed(
            get_code(13), X, 4096, 13, np.random.default_rng(4)
        )
        assert not data.any() and not flips.any()

    def test_positions_are_sorted_distinct_and_in_range(self):
        positions = sample_positions(10_000, 0.2, np.random.default_rng(8))
        assert positions.dtype == np.int64
        assert np.all(np.diff(positions) > 0)
        assert 0 <= positions[0] and positions[-1] < 10_000

    def test_code_capacity_flip_field_is_empty(self):
        code, rounds = get_code(5), 5
        noise = CodeCapacityNoise(0.1)
        for _, data, flips in noise.sample_error_tiles(
            code, X, 200, rounds, np.random.default_rng(6)
        ):
            assert data.size and not flips.size
        data, flips = noise.sample_history_packed(
            code, X, 200, rounds, np.random.default_rng(6)
        )
        assert data.any() and not flips.any()
        loop = run_memory_experiment(
            code, noise, _cascade, trials=130, rng=6, engine="loop"
        )
        batch = run_memory_experiment_batch(
            code, noise, _cascade, trials=130, rng=6, chunk_trials=7
        )
        assert batch == loop


_LOOP_RUNS: dict = {}


def _loop_run(distance, p, trials):
    key = (distance, p, trials)
    if key not in _LOOP_RUNS:
        _LOOP_RUNS[key] = run_memory_experiment(
            get_code(distance), PhenomenologicalNoise(p), _cascade,
            trials=trials, rng=17, engine="loop",
        )
    return _LOOP_RUNS[key]


@pytest.mark.parametrize("chunk_trials", [7, 64, 100, 2048])
@pytest.mark.parametrize("trials", [1, 63, 65, 130])
@pytest.mark.parametrize("p", [1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("distance", [3, 5, 7])
def test_batch_equals_loop(distance, p, trials, chunk_trials):
    batch = run_memory_experiment_batch(
        get_code(distance), PhenomenologicalNoise(p), _cascade,
        trials=trials, rng=17, chunk_trials=chunk_trials,
    )
    assert batch == _loop_run(distance, p, trials)

