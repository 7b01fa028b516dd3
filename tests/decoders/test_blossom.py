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


@st.composite
def sparse_matching_instance(draw, min_events=9, max_events=40, max_distance=6):
    """A sparse, tie-heavy instance past the subset-DP cap.

    Every pair starts too far apart to pair profitably (its distance is at
    least the sum of the two boundary distances); ``n`` to ``3n`` drawn
    pairs get a distance in ``1..max_distance`` instead.  Profits repeat
    constantly and odd cycles of profitable pairs are common, so blossoms —
    and blossoms inside blossoms — form (in about a third and a twentieth
    of such instances).
    """
    num = draw(st.integers(min_value=min_events, max_value=max_events))
    boundary = draw(
        st.lists(st.integers(1, max_distance), min_size=num, max_size=num)
    )
    near = draw(
        st.lists(
            st.tuples(
                st.integers(0, num - 1),
                st.integers(0, num - 1),
                st.integers(1, max_distance),
            ),
            min_size=num,
            max_size=3 * num,
        )
    )
    distance = [[2 * max_distance] * num for _ in range(num)]
    for i in range(num):
        distance[i][i] = 0
    for i, j, length in near:
        if i != j:
            distance[i][j] = distance[j][i] = length
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


def _seeded_large_instances():
    """Seeded distance tables of 20, 33 and 48 events, far past the DP cap."""
    rng = np.random.default_rng(20230807)
    for num in (20, 33, 48):
        spatial = rng.integers(1, 9, size=(num, num))
        distance = (spatial + spatial.T).astype(np.int64)
        np.fill_diagonal(distance, 0)
        yield distance, rng.integers(1, 9, size=num).astype(np.int64)


def _record_blossom_windows(monkeypatch, spec):
    """One seeded ``mem-deep``-point run (d=11, p=1e-2, rounds=22, 96 trials).

    ``spec`` is ``"mwpm"`` (flat: every trial is one window) or a cascade
    tier spec (the off-chip windows).  Returns the run's result and, in call
    order, every window MWPM handed to blossom as ``(graph, ancillas,
    rounds, (pairs, boundary_matches))``.
    """
    import functools

    from repro.clique.cascade import DecoderCascade
    from repro.codes.rotated_surface import get_code
    from repro.decoders.mwpm import MWPMDecoder
    from repro.noise.models import PhenomenologicalNoise
    from repro.simulation.memory import run_memory_experiment

    windows = []
    match_large = MWPMDecoder._match_large

    def recording(self, ancillas, rounds):
        assignment = match_large(self, ancillas, rounds)
        windows.append((self.matching_graph, ancillas, rounds, assignment))
        return assignment

    monkeypatch.setattr(MWPMDecoder, "_match_large", recording)
    factory = (
        MWPMDecoder
        if spec == "mwpm"
        else functools.partial(DecoderCascade, tiers=spec)
    )
    result = run_memory_experiment(
        get_code(11),
        PhenomenologicalNoise(1e-2),
        factory,
        trials=96,
        rounds=22,
        rng=2026,
    )
    return result, windows


class TestLargeInstances:
    def test_matches_networkx_cost_beyond_dp_reach(self):
        # Event counts far past the subset-DP cap, where only the polynomial
        # matchers can play; instances seeded so failures reproduce.
        for distance, boundary in _seeded_large_instances():
            pairs, boundary_matches = match_events(distance, boundary)
            _assert_valid_assignment(boundary.size, pairs, boundary_matches)
            assert _total_cost(
                distance, boundary.tolist(), pairs, boundary_matches
            ) == _networkx_total_cost(distance.tolist(), boundary.tolist())


class TestDifferentialLarge:
    """Windows past the enumeration, where blossom alone decides."""

    @settings(max_examples=60, deadline=None)
    @given(instance=sparse_matching_instance())
    def test_matches_networkx_cost(self, instance):
        distance, boundary = instance
        num = len(boundary)
        dist = np.asarray(distance, dtype=np.int64)
        bound = np.asarray(boundary, dtype=np.int64)
        pairs, boundary_matches = match_events(dist, bound)
        _assert_valid_assignment(num, pairs, boundary_matches)
        assert match_events(dist, bound) == (pairs, boundary_matches)
        assert _total_cost(
            distance, boundary, pairs, boundary_matches
        ) == _networkx_total_cost(distance, boundary)

    def test_real_cascade_windows_match_networkx_cost(self, monkeypatch):
        # Every blossom window of one seeded mem-deep-point cascade batch:
        # 83 windows, median 25 events.
        _, windows = _record_blossom_windows(monkeypatch, "clique,mwpm")
        assert len(windows) == 83
        for graph, ancillas, rounds, (pairs, boundary_matches) in windows:
            distance = (
                graph.spatial_distance_matrix[np.ix_(ancillas, ancillas)]
                + np.abs(rounds[:, None] - rounds[None, :])
            ).tolist()
            boundary = graph.boundary_distance_array[ancillas].tolist()
            _assert_valid_assignment(len(boundary), pairs, boundary_matches)
            assert _total_cost(
                distance, boundary, pairs, boundary_matches
            ) == _networkx_total_cost(distance, boundary)


def _mate_list(num, pairs):
    mate = [-1] * num
    for i, j in pairs:
        mate[i], mate[j] = j, i
    return mate


#: Blossom's assignments, as mate lists (-1: to the boundary), on
#: :func:`_seeded_large_instances`.
FROZEN_LARGE_INSTANCE_MATES = [
    [7, 19, 13, 10, 12, 14, -1, 0, 11, -1, 3, 8, 4, 2, 5, 17, 18, 15, 16, 1],
    [11, 28, 24, 5, 29, 3, 30, 23, 21, 17, -1, 0, 22, 31, 26, 20, -1, 9, -1, 25,
     15, 8, 12, 7, 2, 19, 14, -1, 1, 4, 6, 13, -1],
    [7, -1, 10, 4, 3, 29, 19, 0, -1, 21, 2, 26, 37, 45, 18, 28, -1, 41, 14, 6,
     -1, 9, 36, 25, 33, 23, 11, -1, 15, 5, 47, 35, -1, 24, -1, 31, 22, 12, 46,
     42, 44, 17, 39, -1, 40, 13, 38, 30],
]

#: :func:`_record_blossom_windows` runs: ``(logical_failures, tier_trials,
#: tier_rounds, blossom windows, sha256 of the blossom assignments in call
#: order)``.  Taken when the matcher gained its greedy tight-edge pass
#: (``CODE_VERSION_SALT`` v5); the stage-per-augmentation matcher before it
#: gave the same counts but the digests a0af98d6... (``mwpm``) and
#: 1ac96585... (``clique,mwpm``).
FROZEN_LARGE_WINDOW_RUNS = {
    "mwpm": (
        0, (), (), 96,
        "16ed1735335184d93d8baa036af99dd8a50ff7c08ab86270b61ff6e6e90cb78f",
    ),
    "clique,mwpm": (
        0, (3, 93), (1737, 471), 83,
        "e0f2448c7f6fbbabf7651e2ec1ea7dd96434e82bdc45fa5b84ae6a6cf585e030",
    ),
}


class TestLargeWindowPin:
    """Frozen blossom tie-breaks on windows past the enumeration.

    The differential tests compare total cost only, so a matcher change that
    keeps every cost but picks other equal-weight matchings passes them;
    these pins catch it.  A deliberate tie-break change re-takes them and
    bumps ``CODE_VERSION_SALT``.
    """

    def test_seeded_instances_keep_their_matchings(self):
        mates = [
            _mate_list(boundary.size, match_events(distance, boundary)[0])
            for distance, boundary in _seeded_large_instances()
        ]
        assert mates == FROZEN_LARGE_INSTANCE_MATES

    @pytest.mark.parametrize("spec", sorted(FROZEN_LARGE_WINDOW_RUNS))
    def test_seeded_memory_run_keeps_its_counts(self, spec, monkeypatch):
        import hashlib

        result, windows = _record_blossom_windows(monkeypatch, spec)
        assignments = [assignment for *_, assignment in windows]
        digest = hashlib.sha256(repr(assignments).encode()).hexdigest()
        assert (
            result.logical_failures,
            result.tier_trials,
            result.tier_rounds,
            len(assignments),
            digest,
        ) == FROZEN_LARGE_WINDOW_RUNS[spec]


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
