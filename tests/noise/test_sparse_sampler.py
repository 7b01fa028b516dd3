"""The sparse block sampler behind every memory-experiment history.

Per 2048-trial block the sampler walks each field's error positions with
geometric gaps (``repro.noise.models.sample_positions``), data field first,
then flip field.  These tests pin that the result is distributed as dense
i.i.d. Bernoulli(p) noise, that it lands in the right bits of the packed
planes (padding included), that its memory follows the errors rather than
the field, and that the batch engine and the loop oracle draw the very same
errors for every chunking.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.noise.models import (
    PACKED_SAMPLE_BLOCK,
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


def _block_counts(noise, code, blocks: int, rounds: int, seed: int):
    """Per-block (data, flip) error counts over ``blocks`` full blocks."""
    counts = np.array(
        [
            (data.size, flips.size)
            for _, data, flips in noise.sample_error_blocks(
                code, X, blocks * PACKED_SAMPLE_BLOCK, rounds,
                np.random.default_rng(seed),
            )
        ]
    )
    return counts[:, 0], counts[:, 1]


def _assert_binomial_counts(counts, entries: int, p: float) -> None:
    """z-tests of the counts' mean and variance against Binomial(entries, p)."""
    reps = counts.size
    mean, var = entries * p, entries * p * (1 - p)
    assert abs(counts.mean() - mean) < 4 * math.sqrt(var / reps)
    # Sample-variance standard error, with the binomial kurtosis.
    kurtosis_excess = (1 - 6 * p * (1 - p)) / var
    var_se = var * math.sqrt(2 / (reps - 1) + kurtosis_excess / reps)
    assert abs(counts.var(ddof=1) - var) < 5 * var_se


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
        # A layout slip (trial and plane axes swapped, a word of the block
        # misplaced, a biased bit) shows up as a lopsided histogram over the
        # block's 2048 trial slots or over the planes.
        code, rounds, p = get_code(3), 3, 0.05
        trials = 12 * PACKED_SAMPLE_BLOCK
        data, _ = PhenomenologicalNoise(p).sample_history(
            code, X, trials, rounds, np.random.default_rng(5)
        )
        for counts in (
            data.reshape(-1, PACKED_SAMPLE_BLOCK, rounds * code.num_data_qubits)
            .sum(axis=(0, 2)),
            data.sum(axis=0).reshape(-1),
        ):
            expected = counts.sum() / counts.size
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            dof = counts.size - 1
            assert chi2 < dof + 5 * math.sqrt(2 * dof)

    @pytest.mark.parametrize("p", [0.02, 0.1, 0.7])
    def test_every_position_is_set_with_probability_p(self, p):
        # Per-position marginals of many small fields: each position's hit
        # count is Binomial(reps, p).
        size, reps = 256, 4000
        rng = np.random.default_rng(13)
        hits = np.zeros(size, dtype=np.int64)
        for _ in range(reps):
            hits[sample_positions(size, p, rng)] += 1
        z = (hits - reps * p) / math.sqrt(reps * p * (1 - p))
        assert np.abs(z).max() < 5
        assert abs(_z(int(hits.sum()), size * reps, p)) < 4


class TestBlockCounts:
    @pytest.mark.parametrize("p", [1e-3, 1e-2, 0.3])
    def test_count_mean_and_variance_are_binomial(self, p):
        size, reps = 20_000, 2000
        rng = np.random.default_rng(11)
        counts = np.array([sample_positions(size, p, rng).size for _ in range(reps)])
        _assert_binomial_counts(counts, size, p)

    def test_block_counts_are_binomial(self):
        code, rounds, blocks, p = get_code(3), 3, 600, 1e-2
        data_counts, flip_counts = _block_counts(
            PhenomenologicalNoise(p), code, blocks, rounds, seed=11
        )
        for counts, qubits in (
            (data_counts, code.num_data_qubits),
            (flip_counts, code.num_ancillas_of_type(X)),
        ):
            _assert_binomial_counts(counts, PACKED_SAMPLE_BLOCK * rounds * qubits, p)

    def test_counts_stay_binomial_when_gaps_are_drawn_in_several_batches(self):
        # A 2**61-entry field allows only three gaps per batch before the
        # int64 sum could overflow, so every field here takes several
        # batches; the count is still Binomial(2**61, 2**-58) (mean 8).
        size, p, reps = 2**61, 2.0**-58, 2000
        rng = np.random.default_rng(21)
        counts = []
        for _ in range(reps):
            positions = sample_positions(size, p, rng)
            assert positions.dtype == np.int64
            assert np.all(np.diff(positions) > 0)
            assert positions.size == 0 or 0 <= positions[0] <= positions[-1] < size
            counts.append(positions.size)
        _assert_binomial_counts(np.array(counts), size, p)

    def test_no_correlation_across_blocks_or_fields(self):
        code, rounds, blocks = get_code(3), 3, 2000
        data_counts, flip_counts = _block_counts(
            PhenomenologicalNoise(2e-2), code, blocks, rounds, seed=3
        )
        bound = 4 / math.sqrt(blocks)
        assert abs(np.corrcoef(data_counts[:-1], data_counts[1:])[0, 1]) < bound
        assert abs(np.corrcoef(flip_counts[:-1], flip_counts[1:])[0, 1]) < bound
        assert abs(np.corrcoef(data_counts, flip_counts)[0, 1]) < bound
        assert abs(np.corrcoef(flip_counts[:-1], data_counts[1:])[0, 1]) < bound


class TestMemory:
    def test_a_dense_block_allocates_no_field_sized_array(self):
        # A d=25 block at p=3e-2 has a 32M-entry data field (~960k errors).
        # Its peak memory is the positions themselves (8 bytes per error and
        # a little slack), far below even one byte per entry of the field.
        code, rounds, p = get_code(25), 25, 3e-2
        entries = PACKED_SAMPLE_BLOCK * rounds * (
            code.num_data_qubits + code.num_ancillas_of_type(X)
        )
        blocks = PhenomenologicalNoise(p).sample_error_blocks(
            code, X, PACKED_SAMPLE_BLOCK, rounds, np.random.default_rng(3)
        )
        tracemalloc.start()
        try:
            _, data, flips = next(blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(_z(data.size + flips.size, entries, p)) < 5
        assert peak < 8 * 1.05 * entries * p + 2**20
        assert peak < PACKED_SAMPLE_BLOCK * rounds * code.num_data_qubits // 2


class TestRaggedBlocks:
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

    @pytest.mark.parametrize("trials", [1, 37, 64, 2047, 2048, 2049, 5000])
    def test_blocks_cover_the_trials_once(self, trials):
        blocks = [
            block
            for block, _, _ in PhenomenologicalNoise(0.1).sample_error_blocks(
                get_code(3), X, trials, 3, np.random.default_rng(0)
            )
        ]
        assert sum(blocks) == trials
        assert all(block == PACKED_SAMPLE_BLOCK for block in blocks[:-1])

    def test_a_ragged_block_fills_only_its_own_words(self):
        # 2100 trials: one full block (words 0-31), then 52 trials in word 32.
        code, rounds, trials = get_code(3), 3, 2100
        data, flips = PhenomenologicalNoise(1.0).sample_history_packed(
            code, X, trials, rounds, np.random.default_rng(0)
        )
        assert data.shape[-1] == 33
        assert np.all(data[..., :32] == np.uint64(2**64 - 1))
        assert np.all(data[..., 32] == bitplane.trial_mask_words(52)[0])


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

    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.5, 1.0])
    def test_an_empty_field_draws_nothing(self, p):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        positions = sample_positions(0, p, rng)
        assert positions.dtype == np.int64 and positions.size == 0
        assert rng.bit_generator.state == state

    def test_unit_rate_positions_are_every_entry(self):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        assert np.array_equal(sample_positions(77, 1.0, rng), np.arange(77))
        assert rng.bit_generator.state == state

    def test_positions_are_sorted_distinct_and_in_range(self):
        positions = sample_positions(10_000, 0.2, np.random.default_rng(8))
        assert positions.dtype == np.int64
        assert np.all(np.diff(positions) > 0)
        assert 0 <= positions[0] and positions[-1] < 10_000

    def test_code_capacity_flip_field_is_empty(self):
        code, rounds = get_code(5), 5
        noise = CodeCapacityNoise(0.1)
        for _, data, flips in noise.sample_error_blocks(
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


def _loop_run(distance, p, trials, seed=17):
    key = (distance, p, trials, seed)
    if key not in _LOOP_RUNS:
        _LOOP_RUNS[key] = run_memory_experiment(
            get_code(distance), PhenomenologicalNoise(p), _cascade,
            trials=trials, rng=seed, engine="loop",
        )
    return _LOOP_RUNS[key]


@pytest.mark.parametrize("chunk_trials", [1, 7, 2048, 2049, 5000])
@pytest.mark.parametrize("trials", [1, 63, 65, 130])
@pytest.mark.parametrize("p", [1e-3, 1e-2, 0.1])
@pytest.mark.parametrize("distance", [3, 5, 7])
def test_batch_equals_loop(distance, p, trials, chunk_trials):
    batch = run_memory_experiment_batch(
        get_code(distance), PhenomenologicalNoise(p), _cascade,
        trials=trials, rng=17, chunk_trials=chunk_trials,
    )
    assert batch == _loop_run(distance, p, trials)


@pytest.mark.parametrize("chunk_trials", [1, 7, 2048, 2049, 5000])
def test_chunking_never_changes_a_multi_block_run(chunk_trials):
    # 4500 trials are two full blocks and a ragged one; chunks of 2048,
    # 4096 and 6144 trials (every size rounds up to whole blocks) slice the
    # one stream at block boundaries only.
    batch = run_memory_experiment_batch(
        get_code(3), PhenomenologicalNoise(2e-2), _cascade,
        trials=4500, rng=19, chunk_trials=chunk_trials,
    )
    assert batch == _loop_run(3, 2e-2, 4500, seed=19)
