"""Property and exactness tests for the uint64 bitplane packing layer.

The packed Monte-Carlo hot path is only sound if every primitive in
:mod:`repro.bitplane` is *exact*: pack → unpack is the identity for any
trial count (including ragged non-multiple-of-64 tails), XOR-parity
syndromes equal the int64 matmul mod 2 bit for bit, and the scatter
byte-view accessor addresses precisely the trial it claims to.  Hypothesis
sweeps the shape space; the pinned cases nail the documented edge rules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import bitplane
from repro.codes.rotated_surface import get_code
from repro.types import StabilizerType

SHAPES = st.tuples(
    st.integers(min_value=1, max_value=200),  # trials (ragged tails included)
    st.integers(min_value=1, max_value=6),  # rounds
    st.integers(min_value=1, max_value=30),  # qubit planes
)


def _random_bits(shape, seed):
    return (np.random.default_rng(seed).random(shape) < 0.37).astype(np.uint8)


class TestPackRoundTrip:
    @given(shape=SHAPES, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_pack_unpack_is_the_identity(self, shape, seed):
        bits = _random_bits(shape, seed)
        packed = bitplane.pack_trials(bits)
        trials = shape[0]
        assert packed.shape == shape[1:] + (bitplane.num_words(trials),)
        assert packed.dtype == np.uint64
        assert np.array_equal(bitplane.unpack_trials(packed, trials), bits)

    @given(shape=SHAPES, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_ragged_last_word_is_zero_padded(self, shape, seed):
        packed = bitplane.pack_trials(_random_bits(shape, seed))
        mask = bitplane.trial_mask_words(shape[0])
        assert np.all(packed & ~mask == 0)

    @given(shape=SHAPES, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_popcount_matches_the_bit_sum(self, shape, seed):
        bits = _random_bits(shape, seed)
        assert bitplane.popcount(bitplane.pack_trials(bits)) == int(bits.sum())

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 127, 128, 130])
    def test_num_words_and_mask_pin_the_word_boundary(self, trials):
        words = bitplane.num_words(trials)
        assert words == (trials + 63) // 64
        mask = bitplane.trial_mask_words(trials)
        assert mask.shape == (words,)
        assert bitplane.popcount(mask) == trials

    def test_bool_input_packs_like_uint8(self):
        bits = _random_bits((70, 3, 5), 1)
        assert np.array_equal(
            bitplane.pack_trials(bits.astype(bool)), bitplane.pack_trials(bits)
        )

    def test_rejects_scalar_input_and_nonpositive_trials(self):
        with pytest.raises(ValueError):
            bitplane.pack_trials(np.uint8(1))
        with pytest.raises(ValueError):
            bitplane.num_words(0)


class TestTrialAccessors:
    @given(
        shape=SHAPES,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_scatter_xor_matches_unpacked_xor(self, shape, seed):
        bits = _random_bits(shape, seed)
        trials, planes = shape[0], shape[1:]
        rng = np.random.default_rng(seed + 2)
        ids = np.sort(rng.choice(trials, size=min(trials, 7), replace=False))
        delta = (rng.random((ids.size,) + planes) < 0.5).astype(np.uint8)

        packed = bitplane.pack_trials(bits)
        bitplane.scatter_xor_trial_bits(packed, ids, delta)
        expected = bits.copy()
        expected[ids] ^= delta
        assert np.array_equal(bitplane.unpack_trials(packed, trials), expected)

    @given(
        shape=SHAPES,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        density=st.sampled_from([0.0, 0.02, 0.37]),
    )
    @settings(max_examples=50, deadline=None)
    def test_event_windows_are_the_per_trial_nonzero_events(self, shape, seed, density):
        bits = (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)
        bits[::4] = 0  # empty trials get no window
        trials, rounds, ancillas, bounds = bitplane.event_windows(
            bitplane.pack_trials(bits)
        )
        busy = [t for t in range(shape[0]) if bits[t].any()]
        assert trials.tolist() == busy
        assert bounds[0] == 0 and bounds[-1] == rounds.size == ancillas.size
        for index, trial in enumerate(busy):
            window = slice(bounds[index], bounds[index + 1])
            expected_rounds, expected_ancillas = np.nonzero(bits[trial])
            assert rounds[window].tolist() == expected_rounds.tolist()
            assert ancillas[window].tolist() == expected_ancillas.tolist()

    @given(
        trials=st.integers(min_value=1, max_value=300),
        rounds=st.integers(min_value=1, max_value=5),
        ancillas=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_column_event_windows_read_only_the_given_columns(
        self, trials, rounds, ancillas, seed
    ):
        rng = np.random.default_rng(seed)
        planes = bitplane.pack_trials(
            (rng.random((trials, rounds, ancillas)) < 0.3).astype(np.uint8)
        )
        # Keep a random subset of (round, word) columns; zero the rest.
        keep = rng.random(planes.shape[::2]) < 0.5
        planes *= keep[:, None, :]
        column_rounds, column_words = np.nonzero(keep)
        columns = planes[column_rounds, :, column_words]
        expected = bitplane.event_windows(planes)
        got = bitplane.column_event_windows(columns, column_rounds, column_words)
        for left, right in zip(got, expected):
            assert left.tolist() == right.tolist()

    def test_scatter_requires_contiguous_uint64(self):
        packed = bitplane.pack_trials(_random_bits((70, 4), 0))
        with pytest.raises(ValueError):
            bitplane.scatter_xor_trial_bits(
                packed.astype(np.uint32), np.array([0]), np.zeros((1, 4), np.uint8)
            )


class TestPackedParityCheck:
    @given(
        trials=st.integers(min_value=1, max_value=150),
        rounds=st.integers(min_value=1, max_value=4),
        num_data=st.integers(min_value=2, max_value=24),
        num_ancillas=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_xor_parity_equals_matmul_mod_2(
        self, trials, rounds, num_data, num_ancillas, seed
    ):
        rng = np.random.default_rng(seed)
        matrix = (rng.random((num_ancillas, num_data)) < 0.4).astype(np.int64)
        accumulated = (rng.random((trials, rounds, num_data)) < 0.3).astype(np.uint8)

        packed = bitplane.PackedParityCheck(matrix).syndromes(
            bitplane.pack_trials(accumulated)
        )
        reference = (
            (accumulated.reshape(trials * rounds, num_data) @ matrix.T) & 1
        ).reshape(trials, rounds, num_ancillas)
        assert np.array_equal(
            bitplane.unpack_trials(packed, trials),
            reference.astype(np.uint8),
        )

    def test_all_zero_stabilizer_row_yields_zero_syndrome(self):
        # The sentinel-padded support table must behave for weight-0 rows too.
        matrix = np.array([[0, 0, 0], [1, 1, 0]], dtype=np.int64)
        acc = bitplane.pack_trials(np.ones((70, 2, 3), dtype=np.uint8))
        syndromes = bitplane.PackedParityCheck(matrix).syndromes(acc)
        unpacked = bitplane.unpack_trials(syndromes, 70)
        assert np.all(unpacked[:, :, 0] == 0)
        assert np.all(unpacked[:, :, 1] == 0)  # weight-2 row of all-ones errors

    @given(
        num_data=st.integers(min_value=1, max_value=24),
        num_ancillas=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_support_table_lists_each_row_in_order(self, num_data, num_ancillas, seed):
        # Each row's slots list its support columns in order, then repeat
        # one column an even number of times (x ^ x = 0: no zero plane).
        rng = np.random.default_rng(seed)
        matrix = (rng.random((num_ancillas, num_data)) < 0.4).astype(np.uint8)
        slots_of = {}
        for members, slots in bitplane.PackedParityCheck(matrix)._groups:
            assert not any(slot.flags.writeable for slot in slots)
            rows = range(num_ancillas) if members is None else members
            slots_of.update(zip(rows, np.stack(slots, axis=1)))
        for index, row in enumerate(matrix):
            columns = np.flatnonzero(row)
            if index not in slots_of:
                assert columns.size == 0
                continue
            padded = slots_of[index]
            assert np.array_equal(padded[: columns.size], columns)
            repeats = padded[columns.size :]
            assert repeats.size % 2 == 0
            assert np.all(repeats == (columns[0] if columns.size else 0))

    def test_code_checks_are_cached_per_distance_and_type(self):
        check = bitplane.get_packed_parity_check(5, StabilizerType.X)
        assert bitplane.get_packed_parity_check(5, StabilizerType.X) is check
        assert bitplane.get_packed_parity_check(5, StabilizerType.Z) is not check
        assert check.num_ancillas == get_code(5).num_ancillas_of_type(StabilizerType.X)

    def test_rejects_mismatched_plane_count(self):
        check = bitplane.PackedParityCheck(np.eye(3, dtype=np.int64))
        with pytest.raises(ValueError):
            check.syndromes(np.zeros((2, 4, 1), dtype=np.uint64))
