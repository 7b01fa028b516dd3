"""Tests for the space-time matching graph."""

from __future__ import annotations

import pytest

from repro.decoders.matching_graph import MatchingGraph, get_matching_graph
from repro.types import StabilizerType


@pytest.fixture(scope="module")
def graph_d5() -> MatchingGraph:
    return get_matching_graph(5, StabilizerType.X)


class TestSpatialDistances:
    def test_distance_to_self_is_zero(self, graph_d5):
        for index in range(graph_d5.num_ancillas):
            assert graph_d5.spatial_distance(index, index) == 0

    def test_distances_are_symmetric(self, graph_d5):
        for a in range(graph_d5.num_ancillas):
            for b in range(graph_d5.num_ancillas):
                assert graph_d5.spatial_distance(a, b) == graph_d5.spatial_distance(b, a)

    def test_all_pairs_reachable(self, graph_d5):
        for a in range(graph_d5.num_ancillas):
            for b in range(graph_d5.num_ancillas):
                assert graph_d5.spatial_distance(a, b) >= 0

    def test_clique_neighbors_are_at_distance_one(self, code_d5):
        graph = MatchingGraph(code_d5, StabilizerType.X)
        index_of = code_d5.ancilla_index(StabilizerType.X)
        for ancilla in code_d5.ancillas(StabilizerType.X):
            for neighbor in ancilla.clique_neighbors:
                assert graph.spatial_distance(ancilla.index, index_of[neighbor]) == 1

    def test_triangle_inequality(self, graph_d5):
        n = graph_d5.num_ancillas
        for a in range(n):
            for b in range(n):
                for c in range(0, n, 3):
                    assert graph_d5.spatial_distance(a, b) <= (
                        graph_d5.spatial_distance(a, c) + graph_d5.spatial_distance(c, b)
                    )


class TestPathsProduceCorrectSyndromes:
    def test_pairwise_path_flips_exactly_the_endpoints(self, code_d5):
        graph = MatchingGraph(code_d5, StabilizerType.X)
        ancillas = code_d5.ancillas(StabilizerType.X)
        for a in range(len(ancillas)):
            for b in range(a + 1, len(ancillas)):
                path = graph.spatial_path(a, b)
                assert len(path) == graph.spatial_distance(a, b)
                syndrome = code_d5.syndrome_of(path, StabilizerType.X)
                flipped = {i for i in range(len(ancillas)) if syndrome[i]}
                assert flipped == {a, b}

    def test_boundary_path_flips_only_the_source(self, code_d5):
        graph = MatchingGraph(code_d5, StabilizerType.X)
        ancillas = code_d5.ancillas(StabilizerType.X)
        for a in range(len(ancillas)):
            path = graph.boundary_path(a)
            assert len(path) == graph.boundary_distance(a)
            syndrome = code_d5.syndrome_of(path, StabilizerType.X)
            flipped = {i for i in range(len(ancillas)) if syndrome[i]}
            assert flipped == {a}

    def test_boundary_distance_is_one_for_boundary_ancillas(self, code_d5, stype):
        graph = MatchingGraph(code_d5, stype)
        for ancilla in code_d5.ancillas(stype):
            if ancilla.boundary_qubits:
                assert graph.boundary_distance(ancilla.index) == 1

    def test_boundary_distance_bounded_by_half_lattice(self, code_d7):
        graph = MatchingGraph(code_d7, StabilizerType.X)
        for index in range(graph.num_ancillas):
            assert 1 <= graph.boundary_distance(index) <= code_d7.distance


class TestCaching:
    def test_get_matching_graph_caches(self):
        assert get_matching_graph(3, StabilizerType.X) is get_matching_graph(
            3, StabilizerType.X
        )

    def test_types_have_separate_graphs(self):
        assert get_matching_graph(3, StabilizerType.X) is not get_matching_graph(
            3, StabilizerType.Z
        )

    def test_decoders_share_the_cached_graph(self):
        # One constructor: every MWPM decoder of a (distance, stype) reads
        # the cached graph instead of building its own.
        from repro.codes.rotated_surface import RotatedSurfaceCode
        from repro.decoders.mwpm import MWPMDecoder

        cached = get_matching_graph(5, StabilizerType.Z)
        assert MWPMDecoder(RotatedSurfaceCode(5), StabilizerType.Z).matching_graph is cached
