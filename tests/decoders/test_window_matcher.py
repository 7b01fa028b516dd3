"""MWPM's batched event-window matcher against its oracles.

* Windows of at most ``ENUMERATION_MAX_EVENTS`` events must get exactly the
  correction the scalar subset-DP (``subset_dp_oracle``) gives — the same
  assignment, equal-weight ties included — whether decoded alone or mixed
  into a ragged batch with other event counts.
* Larger windows must still go to blossom unchanged.
* The native packed path must be byte-identical to the base class's
  per-trial fallback, and a tier that only has the per-window
  ``decode_events_bitmap`` hook must decode batches exactly as the override.
"""

from __future__ import annotations

import numpy as np
import pytest
from subset_dp_oracle import subset_dp_bitmap

from repro import bitplane
from repro.codes.rotated_surface import get_code
from repro.decoders import blossom
from repro.decoders.base import Decoder
from repro.decoders.mwpm import ENUMERATION_MAX_EVENTS, MWPMDecoder, _assignment_table
from repro.types import StabilizerType

X = StabilizerType.X


def _random_windows(rng, code, counts, rounds):
    """Concatenated windows of the given event counts, each row-major sorted."""
    width = code.num_ancillas_of_type(X)
    all_rounds, all_ancillas, bounds = [], [], [0]
    for count in counts:
        cells = np.sort(rng.choice(rounds * width, size=count, replace=False))
        all_rounds.append(cells // width)
        all_ancillas.append(cells % width)
        bounds.append(bounds[-1] + count)
    return (
        np.concatenate(all_rounds).astype(np.int64),
        np.concatenate(all_ancillas).astype(np.int64),
        np.asarray(bounds, dtype=np.int64),
    )


def _windows(rounds, ancillas, bounds):
    for start, end in zip(bounds[:-1], bounds[1:]):
        yield rounds[start:end], ancillas[start:end]


class _FlatGraph:
    """A matching graph whose every distance is one constant: all ties."""

    def __init__(self, graph, value):
        self._graph = graph
        self.spatial_distance_matrix = np.full_like(graph.spatial_distance_matrix, value)
        self.boundary_distance_array = np.full_like(graph.boundary_distance_array, value)

    def __getattr__(self, name):
        return getattr(self._graph, name)


class _FlatMWPM(MWPMDecoder):
    def __init__(self, code, stype, value):
        super().__init__(code, stype)
        self._graph = _FlatGraph(self._graph, value)


class _PerWindowMWPM(Decoder):
    """A tier with only the per-window hook: the base class loops over it."""

    def __init__(self, code, stype):
        super().__init__(code, stype)
        self._inner = MWPMDecoder(code, stype)

    def decode(self, detections):
        return self._inner.decode(detections)

    def decode_events_bitmap(self, rounds, ancillas):
        return self._inner.decode_events_bitmap(rounds, ancillas)


class TestAssignmentTable:
    @pytest.mark.parametrize("count", range(1, ENUMERATION_MAX_EVENTS + 1))
    def test_every_assignment_covers_each_event_once(self, count):
        incidence, left, right, _, _ = _assignment_table(count)
        # Involution counts: 1, 2, 4, 10, 26, 76, 232, 764.
        expected = [1, 1, 2, 4, 10, 26, 76, 232, 764][count]
        assert incidence.shape == (count * (count + 1) // 2, expected)
        for column in range(expected):
            ends = [int(e) for e in np.concatenate([left[column], right[column]]) if e < count]
            assert sorted(ends) == list(range(count))

    def test_dfs_order_starts_with_all_boundary(self):
        _, left, right, _, _ = _assignment_table(3)
        assert left[0].tolist() == [0, 1, 2] and right[0].tolist() == [3, 3, 3]
        # Then event 0 to the boundary and 1-2 paired, then 0-1, then 0-2.
        assert list(zip(left[1].tolist(), right[1].tolist()))[:2] == [(0, 3), (1, 2)]
        assert (left[2, 0], right[2, 0]) == (0, 1)
        assert (left[3, 0], right[3, 0]) == (0, 2)


class TestAgainstSubsetDP:
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_random_windows_match_the_oracle(self, distance):
        code = get_code(distance)
        decoder = MWPMDecoder(code, X)
        rng = np.random.default_rng(distance)
        counts = [int(c) for c in rng.integers(1, ENUMERATION_MAX_EVENTS + 1, size=240)]
        rounds, ancillas, bounds = _random_windows(rng, code, counts, distance + 1)
        batched = decoder.decode_event_windows(rounds, ancillas, bounds)
        assert batched.shape == (len(counts), code.num_data_qubits)
        assert batched.dtype == np.uint8
        for index, (window_rounds, window_ancillas) in enumerate(
            _windows(rounds, ancillas, bounds)
        ):
            expected = subset_dp_bitmap(decoder, window_rounds, window_ancillas)
            assert np.array_equal(batched[index], expected), counts[index]
            assert np.array_equal(
                decoder.decode_events_bitmap(window_rounds, window_ancillas), expected
            )

    @pytest.mark.parametrize("value", [0, 1, 3])
    def test_all_equal_distances_tie_break_like_the_oracle(self, value):
        # Every space-time distance equal (same round, constant spatial and
        # boundary distances): ties everywhere.
        code = get_code(5)
        decoder = _FlatMWPM(code, X, value)
        rng = np.random.default_rng(5)
        counts = list(range(1, ENUMERATION_MAX_EVENTS + 1)) * 4
        rounds, ancillas, bounds = _random_windows(rng, code, counts, 1)
        batched = decoder.decode_event_windows(rounds, ancillas, bounds)
        for index, window in enumerate(_windows(rounds, ancillas, bounds)):
            assert np.array_equal(batched[index], subset_dp_bitmap(decoder, *window))

    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_same_ancilla_in_consecutive_rounds(self, distance):
        # Measurement-error shapes: an ancilla firing in rounds r and r+1 ties
        # "pair in time" against chains through space and the boundary.
        code = get_code(distance)
        decoder = MWPMDecoder(code, X)
        width = code.num_ancillas_of_type(X)
        rng = np.random.default_rng(100 + distance)
        all_rounds, all_ancillas, bounds = [], [], [0]
        for _ in range(120):
            cells = set()
            for _pair in range(int(rng.integers(1, ENUMERATION_MAX_EVENTS // 2 + 1))):
                ancilla, first = int(rng.integers(width)), int(rng.integers(distance))
                cells |= {first * width + ancilla, (first + 1) * width + ancilla}
            cells = sorted(cells)[:ENUMERATION_MAX_EVENTS]
            cells = np.asarray(cells, dtype=np.int64)
            all_rounds.append(cells // width)
            all_ancillas.append(cells % width)
            bounds.append(bounds[-1] + cells.size)
        rounds, ancillas = np.concatenate(all_rounds), np.concatenate(all_ancillas)
        bounds = np.asarray(bounds, dtype=np.int64)
        batched = decoder.decode_event_windows(rounds, ancillas, bounds)
        for index, window in enumerate(_windows(rounds, ancillas, bounds)):
            assert np.array_equal(batched[index], subset_dp_bitmap(decoder, *window))


class TestBlossomWindows:
    def test_nine_event_window_takes_the_blossom_path(self):
        code = get_code(7)
        decoder = MWPMDecoder(code, X)
        graph = decoder.matching_graph
        rng = np.random.default_rng(9)
        for _ in range(20):
            rounds, ancillas, _ = _random_windows(
                rng, code, [ENUMERATION_MAX_EVENTS + 1], 8
            )
            distance = graph.spatial_distance_matrix[np.ix_(ancillas, ancillas)] + np.abs(
                rounds[:, None] - rounds[None, :]
            )
            pairs, boundary_matches = blossom.match_events(
                distance, graph.boundary_distance_array[ancillas]
            )
            expected = np.zeros(code.num_data_qubits, dtype=np.uint8)
            for i, j in pairs:
                for qubit in graph.spatial_path(int(ancillas[i]), int(ancillas[j])):
                    expected[code.data_index[qubit]] ^= 1
            for i in boundary_matches:
                for qubit in graph.boundary_path(int(ancillas[i])):
                    expected[code.data_index[qubit]] ^= 1
            assert np.array_equal(decoder.decode_events_bitmap(rounds, ancillas), expected)

    def test_mixed_batch_equals_one_window_per_call(self):
        code = get_code(5)
        decoder = MWPMDecoder(code, X)
        rng = np.random.default_rng(13)
        counts = [int(c) for c in rng.integers(0, 14, size=80)]
        rounds, ancillas, bounds = _random_windows(rng, code, counts, 6)
        batched = decoder.decode_event_windows(rounds, ancillas, bounds)
        for index, window in enumerate(_windows(rounds, ancillas, bounds)):
            assert np.array_equal(batched[index], decoder.decode_events_bitmap(*window))
        assert not batched[[i for i, c in enumerate(counts) if c == 0]].any()


class TestPackedPaths:
    @pytest.mark.parametrize("trials", [1, 63, 65, 130])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.1])
    def test_native_batch_equals_base_fallback(self, trials, density):
        code = get_code(5)
        decoder = MWPMDecoder(code, X)
        rng = np.random.default_rng(trials)
        batch = (rng.random((trials, 6, code.num_ancillas_of_type(X))) < density).astype(
            np.uint8
        )
        batch[::3] = 0  # all-empty trials between the busy ones
        planes = bitplane.pack_trials(batch)
        native = decoder.decode_batch_packed(planes, trials)
        fallback = Decoder.decode_batch_packed(decoder, planes, trials)
        assert native.corrections.tobytes() == fallback.corrections.tobytes()
        assert native.corrections.shape == fallback.corrections.shape
        assert np.array_equal(native.onchip_rounds, fallback.onchip_rounds)
        assert np.array_equal(native.total_rounds, fallback.total_rounds)
        assert native.trials == fallback.trials == trials
        assert native.tier_trials is None and fallback.tier_trials is None

    def test_per_window_hook_tier_equals_the_override(self):
        code = get_code(7)
        rng = np.random.default_rng(17)
        counts = [int(c) for c in rng.integers(0, 12, size=60)]
        rounds, ancillas, bounds = _random_windows(rng, code, counts, 8)
        assert np.array_equal(
            _PerWindowMWPM(code, X).decode_event_windows(rounds, ancillas, bounds),
            MWPMDecoder(code, X).decode_event_windows(rounds, ancillas, bounds),
        )

    def test_packed_path_table_matches_the_path_sets(self):
        code = get_code(5)
        graph = MWPMDecoder(code, X).matching_graph
        table = graph.packed_path_words
        n = graph.num_ancillas
        assert table.shape == (n + 1, n + 1, 1) and table.dtype == np.uint64
        bits = np.unpackbits(
            table.view(np.uint8), axis=-1, count=code.num_data_qubits, bitorder="little"
        )
        for a in range(n):
            for b in range(n):
                assert {code.data_qubits[q] for q in np.flatnonzero(bits[a, b])} == (
                    graph.spatial_path(a, b)
                )
            boundary = {code.data_qubits[q] for q in np.flatnonzero(bits[a, n])}
            assert boundary == graph.boundary_path(a)
            assert np.array_equal(bits[n, a], bits[a, n])
        assert not bits[n, n].any()
