"""Scalar subset-DP matcher: the tie-break oracle for MWPM's small windows.

``MWPMDecoder`` solves windows of at most ``ENUMERATION_MAX_EVENTS`` events
by enumerating every pairing-or-boundary assignment and taking the first
minimum.  This module keeps the exact scalar DP that enumeration replaced, so
the tests can check not only the total cost but the very assignment —
equal-weight ties included — the decoder picks.  No production path uses
it, so it lives with the tests.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.mwpm import MWPMDecoder


def match_events_small(
    distance: list[list[int]],
    boundary_distance: list[int],
) -> tuple[list[tuple[int, int]], list[int]]:
    """Exact minimum-total-distance assignment by DP over event subsets.

    ``best[mask]`` is the cheapest way to resolve the event subset ``mask``,
    where every event is either paired with another event in the subset or
    matched to the boundary.  Returns ``(pairs, boundary)`` as event indices.

    Ties are broken deterministically: the lowest event of a subset scans
    its candidates in a fixed order (the boundary first, then partners by
    ascending index) and only a strictly cheaper candidate displaces the
    incumbent.  The all-zero-distance case therefore yields one canonical
    assignment: every event to the boundary.  The tables are O(2^n), so keep
    ``n`` small.
    """
    num = len(boundary_distance)
    full = (1 << num) - 1
    best = [0] * (full + 1)
    choice: list[tuple[int, int]] = [(-1, -1)] * (full + 1)
    for mask in range(1, full + 1):
        lowest = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << lowest)
        best_cost = boundary_distance[lowest] + best[rest]
        best_choice = (lowest, -1)
        row = distance[lowest]
        partners = rest
        while partners:
            partner = (partners & -partners).bit_length() - 1
            partners &= partners - 1
            cost = row[partner] + best[rest ^ (1 << partner)]
            if cost < best_cost:
                best_cost = cost
                best_choice = (lowest, partner)
        best[mask] = best_cost
        choice[mask] = best_choice

    pairs: list[tuple[int, int]] = []
    boundary_matches: list[int] = []
    mask = full
    while mask:
        event, partner = choice[mask]
        if partner == -1:
            boundary_matches.append(event)
            mask ^= 1 << event
        else:
            pairs.append((event, partner))
            mask ^= (1 << event) | (1 << partner)
    return pairs, boundary_matches


def subset_dp_bitmap(
    decoder: MWPMDecoder, rounds: np.ndarray, ancillas: np.ndarray
) -> np.ndarray:
    """One window's correction bitmap as the scalar DP plus chain sets give it.

    The pre-enumeration per-window path: distances from the matching graph,
    the DP's assignment, then each chain's qubit set XOR-ed in one qubit at
    a time — no packed tables.
    """
    graph = decoder.matching_graph
    code = decoder.code
    ancillas = np.asarray(ancillas, dtype=np.int64)
    rounds = np.asarray(rounds, dtype=np.int64)
    distance = graph.spatial_distance_matrix[np.ix_(ancillas, ancillas)] + np.abs(
        rounds[:, None] - rounds[None, :]
    )
    pairs, boundary_matches = match_events_small(
        distance.tolist(), graph.boundary_distance_array[ancillas].tolist()
    )
    bitmap = np.zeros(code.num_data_qubits, dtype=np.uint8)
    for i, j in pairs:
        for qubit in graph.spatial_path(int(ancillas[i]), int(ancillas[j])):
            bitmap[code.data_index[qubit]] ^= 1
    for i in boundary_matches:
        for qubit in graph.boundary_path(int(ancillas[i])):
            bitmap[code.data_index[qubit]] ^= 1
    return bitmap
