"""Tests for the clustering (union-find style) decoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decoders.union_find import ClusteringDecoder, _DisjointSets
from repro.types import Coord, StabilizerType


class TestDisjointSets:
    def test_initially_all_singletons(self):
        sets = _DisjointSets(4)
        assert len({sets.find(i) for i in range(4)}) == 4

    def test_union_merges_roots(self):
        sets = _DisjointSets(4)
        sets.union(0, 1)
        sets.union(1, 2)
        assert sets.find(0) == sets.find(2)
        assert sets.find(3) != sets.find(0)

    def test_union_is_idempotent(self):
        sets = _DisjointSets(3)
        sets.union(0, 1)
        sets.union(0, 1)
        assert sets.find(0) == sets.find(1)


@pytest.fixture(scope="module")
def clustering_d5():
    from repro.codes.rotated_surface import get_code

    return ClusteringDecoder(get_code(5), StabilizerType.X)


class TestClusteringDecoder:
    def test_empty_syndrome(self, clustering_d5, code_d5):
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        assert clustering_d5.decode(np.zeros(width, dtype=np.uint8)).correction == frozenset()

    def test_single_bulk_error_is_corrected(self, clustering_d5, code_d5):
        error = {Coord(4, 4)}
        syndrome = code_d5.syndrome_of(error, StabilizerType.X)
        result = clustering_d5.decode(syndrome)
        residual = frozenset(error) ^ result.correction
        assert not code_d5.syndrome_of(residual, StabilizerType.X).any()
        assert not code_d5.is_logical_error(residual, StabilizerType.X)

    def test_zero_residual_syndrome_for_random_errors(self, clustering_d5, code_d5, rng):
        for _ in range(25):
            error = {q for q in code_d5.data_qubits if rng.random() < 0.06}
            syndrome = code_d5.syndrome_of(error, StabilizerType.X)
            result = clustering_d5.decode(syndrome)
            residual = frozenset(error) ^ result.correction
            assert not code_d5.syndrome_of(residual, StabilizerType.X).any()

    def test_measurement_error_pair_resolved_in_time(self, clustering_d5, code_d5):
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        detections = np.zeros((4, width), dtype=np.uint8)
        detections[1, 3] = 1
        detections[2, 3] = 1
        result = clustering_d5.decode(detections)
        # Matching the pair temporally needs no data correction; any residual
        # correction must at least have zero syndrome.
        assert not code_d5.syndrome_of(result.correction, StabilizerType.X).any()

    def test_metadata_reports_clusters(self, clustering_d5, code_d5):
        error = {Coord(0, 0), Coord(8, 8)}
        syndrome = code_d5.syndrome_of(error, StabilizerType.X)
        result = clustering_d5.decode(syndrome)
        assert result.metadata["num_events"] >= 1
        assert result.metadata["num_clusters"] >= 1

    def test_accuracy_between_random_and_mwpm(self, code_d3):
        # On the d=3 code the clustering decoder must correct every single
        # data error without inducing a logical error.
        decoder = ClusteringDecoder(code_d3, StabilizerType.X)
        for qubit in code_d3.data_qubits:
            syndrome = code_d3.syndrome_of({qubit}, StabilizerType.X)
            result = decoder.decode(syndrome)
            residual = {qubit} ^ set(result.correction)
            assert not code_d3.syndrome_of(residual, StabilizerType.X).any()
            assert not code_d3.is_logical_error(residual, StabilizerType.X)


class TestStatelessness:
    def test_decode_leaves_no_growth_state_behind(self, clustering_d5, code_d5):
        error = {Coord(2, 2), Coord(6, 4)}
        syndrome = code_d5.syndrome_of(error, StabilizerType.X)
        clustering_d5.decode(syndrome)
        # _grow_clusters must keep all growth state local: the decoder holds
        # no per-call attributes, so instances are safe to share across
        # threads and repeated decodes cannot observe each other.
        assert not hasattr(clustering_d5, "_radius")
        assert not hasattr(clustering_d5, "_boundary_distance")

    def test_repeated_decodes_are_identical(self, clustering_d5, code_d5, rng):
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        detections = (rng.random((5, width)) < 0.15).astype(np.uint8)
        first = clustering_d5.decode(detections)
        second = clustering_d5.decode(detections)
        assert first.correction == second.correction
        assert first.metadata == second.metadata


class TestEventBitmapPath:
    def test_bitmap_matches_decode(self, clustering_d5, code_d5, rng):
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        data_index = code_d5.data_index
        for density in (0.06, 0.2):
            detections = (rng.random((4, width)) < density).astype(np.uint8)
            rounds, ancillas = np.nonzero(detections)
            bitmap = clustering_d5.decode_events_bitmap(rounds, ancillas)
            expected = np.zeros(code_d5.num_data_qubits, dtype=np.uint8)
            for qubit in clustering_d5.decode(detections).correction:
                expected[data_index[qubit]] ^= 1
            assert np.array_equal(bitmap, expected)

    def test_empty_events_give_zero_bitmap(self, clustering_d5, code_d5):
        bitmap = clustering_d5.decode_events_bitmap(np.array([]), np.array([]))
        assert bitmap.shape == (code_d5.num_data_qubits,)
        assert not bitmap.any()
