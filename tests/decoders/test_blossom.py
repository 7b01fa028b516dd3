"""Differential tests for the in-tree blossom matcher.

The matcher must agree on *total* assignment cost with both independent
oracles on the same instances:

* the exact subset-DP oracle (``subset_dp_oracle.match_events_small``) for
  small event sets, and
* networkx's ``max_weight_matching`` on the auxiliary graph (explicit
  boundary copies + zero-weight clique), through the test-side oracle in
  ``networkx_oracle.py``, when networkx is available.

Equal-cost solutions may pick different pairings — cost is the quantity
that fixes decoding accuracy — but every solution must be a valid
partition of the events and repeated runs must be bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from networkx_oracle import networkx_total_cost
from subset_dp_oracle import match_events_small

from repro.decoders.blossom import match_events, max_weight_matching


def _total_cost(distance, boundary, pairs, boundary_matches):
    return sum(distance[i][j] for i, j in pairs) + sum(
        boundary[i] for i in boundary_matches
    )


def _assert_valid_assignment(num, pairs, boundary_matches):
    """Every event appears exactly once, as a pair member or at the boundary."""
    seen = sorted([v for pair in pairs for v in pair] + list(boundary_matches))
    assert seen == list(range(num))


def _networkx_total_cost(distance, boundary):
    """Optimal cost via the auxiliary-graph formulation (test-side oracle)."""
    pytest.importorskip("networkx")
    return networkx_total_cost(distance, boundary)


@st.composite
def matching_instance(draw, max_events=8, max_distance=6):
    """A symmetric integer distance table plus boundary distances.

    Distances are drawn from a small range so equal-weight ties — the
    regime where matcher implementations legitimately differ — occur
    constantly.
    """
    num = draw(st.integers(min_value=0, max_value=max_events))
    boundary = draw(
        st.lists(st.integers(1, max_distance), min_size=num, max_size=num)
    )
    upper = draw(
        st.lists(
            st.integers(1, max_distance),
            min_size=num * (num - 1) // 2,
            max_size=num * (num - 1) // 2,
        )
    )
    distance = [[0] * num for _ in range(num)]
    position = 0
    for i in range(num):
        for j in range(i + 1, num):
            distance[i][j] = distance[j][i] = upper[position]
            position += 1
    return distance, boundary


class TestDifferentialSmall:
    @settings(max_examples=300, deadline=None)
    @given(instance=matching_instance())
    def test_matches_subset_dp_cost(self, instance):
        distance, boundary = instance
        num = len(boundary)
        dp_pairs, dp_boundary = match_events_small(distance, boundary)
        pairs, boundary_matches = match_events(
            np.asarray(distance, dtype=np.int64).reshape(num, num),
            np.asarray(boundary, dtype=np.int64),
        )
        _assert_valid_assignment(num, pairs, boundary_matches)
        assert _total_cost(distance, boundary, pairs, boundary_matches) == (
            _total_cost(distance, boundary, dp_pairs, dp_boundary)
        )

    @settings(max_examples=100, deadline=None)
    @given(instance=matching_instance())
    def test_matches_networkx_cost(self, instance):
        distance, boundary = instance
        num = len(boundary)
        pairs, boundary_matches = match_events(
            np.asarray(distance, dtype=np.int64).reshape(num, num),
            np.asarray(boundary, dtype=np.int64),
        )
        assert _total_cost(
            distance, boundary, pairs, boundary_matches
        ) == _networkx_total_cost(distance, boundary)

    @settings(max_examples=100, deadline=None)
    @given(instance=matching_instance())
    def test_repeated_runs_are_bit_identical(self, instance):
        distance, boundary = instance
        num = len(boundary)
        dist = np.asarray(distance, dtype=np.int64).reshape(num, num)
        bound = np.asarray(boundary, dtype=np.int64)
        assert match_events(dist, bound) == match_events(dist, bound)


class TestLargeInstances:
    def test_matches_networkx_cost_beyond_dp_reach(self):
        # Event counts far past the subset-DP cap, where only the polynomial
        # matchers can play; instances seeded so failures reproduce.
        rng = np.random.default_rng(20230807)
        for num in (20, 33, 48):
            spatial = rng.integers(1, 9, size=(num, num))
            distance = (spatial + spatial.T).astype(np.int64)
            np.fill_diagonal(distance, 0)
            boundary = rng.integers(1, 9, size=num).astype(np.int64)
            pairs, boundary_matches = match_events(distance, boundary)
            _assert_valid_assignment(num, pairs, boundary_matches)
            assert _total_cost(
                distance, boundary.tolist(), pairs, boundary_matches
            ) == _networkx_total_cost(distance.tolist(), boundary.tolist())


class TestEdgeCases:
    def test_empty_and_singleton(self):
        assert match_events(np.zeros((0, 0), dtype=np.int64), np.zeros(0)) == ([], [])
        assert match_events(np.zeros((1, 1), dtype=np.int64), np.array([3])) == (
            [],
            [0],
        )

    def test_pair_boundary_tie_resolves_to_boundary(self):
        # profit(0, 1) = 1 + 1 - 2 = 0: pairing does not strictly beat the
        # boundary, so the canonical choice (shared with the subset-DP) is
        # the boundary for both events.
        distance = np.array([[0, 2], [2, 0]], dtype=np.int64)
        boundary = np.array([1, 1], dtype=np.int64)
        assert match_events(distance, boundary) == ([], [0, 1])

    def test_profitable_pair_is_taken(self):
        distance = np.array([[0, 1], [1, 0]], dtype=np.int64)
        boundary = np.array([4, 4], dtype=np.int64)
        assert match_events(distance, boundary) == ([(0, 1)], [])

    def test_max_weight_matching_empty_graph(self):
        assert max_weight_matching(3, [], [], []) == [-1, -1, -1]

    def test_max_weight_matching_prefers_heavier_edge(self):
        # Path a-b-c: taking the single heavier edge beats the lighter one.
        mate = max_weight_matching(3, [0, 1], [1, 2], [2, 5])
        assert mate == [-1, 2, 1]
