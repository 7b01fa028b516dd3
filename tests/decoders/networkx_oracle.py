"""networkx reference matcher: a differential-test oracle for MWPM decoding.

The in-tree blossom matcher (:mod:`repro.decoders.blossom`) handles the
lattice boundary implicitly.  This module keeps the textbook auxiliary-graph
formulation it replaced, solved by ``networkx.max_weight_matching``:

* one node per detection event, plus one *boundary copy* per event;
* event-event edges weighted by (negative) space-time distance;
* event-to-own-boundary-copy edges weighted by (negative) boundary distance;
* boundary-copy-to-boundary-copy edges of weight zero, so unused copies can
  pair among themselves.

Both solve the same minimum-total-distance problem, so the tests compare
total cost (equal-cost solutions may pair events differently).  networkx is
imported lazily, inside the call: the decoder package itself never imports
it, and ``tests/test_dependency_hygiene.py`` uses this oracle to check that
its import hook really does catch a networkx import.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.mwpm import MWPMDecoder


def networkx_match(
    distance: list[list[int]], boundary: list[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Minimum-total-distance event/boundary assignment via networkx.

    Returns ``(pairs, boundary_matches)`` as event indices, the same shape
    :func:`repro.decoders.blossom.match_events` returns.
    """
    import networkx as nx

    num = len(boundary)
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * num))
    for i in range(num):
        graph.add_edge(i, num + i, weight=-boundary[i])
        for j in range(i + 1, num):
            graph.add_edge(i, j, weight=-distance[i][j])
            graph.add_edge(num + i, num + j, weight=0)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    matched_nodes = {node for pair in matching for node in pair}
    assert len(matched_nodes) == 2 * num, "auxiliary-graph matching is not perfect"

    pairs: list[tuple[int, int]] = []
    boundary_matches: list[int] = []
    for node_a, node_b in matching:
        low, high = min(node_a, node_b), max(node_a, node_b)
        if high < num:
            pairs.append((low, high))
        elif low < num:
            boundary_matches.append(low)
        # boundary-boundary pairs need no correction
    return pairs, boundary_matches


def networkx_total_cost(distance: list[list[int]], boundary: list[int]) -> int:
    """Optimal assignment cost under the auxiliary-graph formulation."""
    pairs, boundary_matches = networkx_match(distance, boundary)
    return sum(distance[i][j] for i, j in pairs) + sum(
        boundary[i] for i in boundary_matches
    )


class NetworkxMWPMDecoder(MWPMDecoder):
    """:class:`MWPMDecoder` with the networkx matcher in place of blossom.

    Windows small enough for the exact enumeration still go there, exactly
    as in the production decoder; only the matcher for larger windows is
    swapped.
    """

    def _match_large(
        self, ancillas: np.ndarray, rounds: np.ndarray
    ) -> tuple[list[tuple[int, int]], list[int]]:
        graph = self.matching_graph
        distance = graph.spatial_distance_matrix[np.ix_(ancillas, ancillas)] + np.abs(
            rounds[:, None] - rounds[None, :]
        )
        return networkx_match(
            distance.tolist(), graph.boundary_distance_array[ancillas].tolist()
        )
