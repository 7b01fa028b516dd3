"""Minimum Weight Perfect Matching decoder (the paper's off-chip baseline).

MWPM pairs up detection events (or matches them to the lattice boundary) so
that the total length of the implied error chains is minimal, which under an
independent-error model is the most probable explanation of the observed
syndrome (Dennis et al., "Topological quantum memory").

Large event sets are solved by the in-tree O(n^3) blossom matcher
(:mod:`repro.decoders.blossom`): boundary copies are handled *implicitly*
through a profit transformation, so the matcher runs on ``n`` event nodes
instead of a ``2n``-node auxiliary graph with explicit boundary copies.

Small event sets — the common case for the cascade's off-chip tier, which
only ever sees the rare complex rounds — skip general matching entirely: an
exact subset-DP over pair/boundary assignments finds the same
minimum-total-distance solution in microseconds.

The decoder has no heavy dependencies.  The networkx auxiliary-graph
formulation lives on only as a differential-test oracle in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders import blossom
from repro.decoders.base import Decoder, DecodeResult
from repro.decoders.matching_graph import (
    MatchingGraph,
    SpaceTimeEvent,
    get_matching_graph,
)
from repro.exceptions import ConfigurationError
from repro.types import StabilizerType

#: Hard cap on the subset-DP's event count.  The DP tables are O(2^n), so a
#: caller-supplied threshold in the mid-30s would attempt a multi-GB
#: allocation; beyond this cap callers must route to the polynomial blossom
#: matcher instead (:func:`repro.decoders.blossom.match_events`).
SUBSET_DP_MAX_EVENTS = 16


def match_events_small(
    distance: list[list[int]],
    boundary_distance: list[int],
) -> tuple[list[tuple[int, int]], list[int]]:
    """Exact minimum-total-distance assignment by DP over event subsets.

    ``best[mask]`` is the cheapest way to resolve the event subset ``mask``,
    where every event is either paired with another event in the subset or
    matched to the boundary — the same solution space the auxiliary matching
    graph encodes.  Returns ``(pairs, boundary)`` as event *indices* into the
    caller's arrays.  Module-level so other decoders (the clustering
    decoder's intermediate-tier cluster resolution) can reuse the exact
    matcher on their own small event sets.

    Ties are broken deterministically: candidates are scanned in a fixed
    order (the boundary first, then partners by ascending index) and only
    a strictly cheaper candidate displaces the incumbent.  Even the
    pathological all-zero-distance case therefore yields one canonical
    assignment — every event to the boundary — so sharded and unsharded
    runs can never diverge on equal-weight choices.

    Raises :class:`~repro.exceptions.ConfigurationError` beyond
    :data:`SUBSET_DP_MAX_EVENTS` events instead of attempting the O(2^n)
    table allocation.
    """
    num = len(boundary_distance)
    if num > SUBSET_DP_MAX_EVENTS:
        raise ConfigurationError(
            f"match_events_small is O(2^n) and capped at "
            f"SUBSET_DP_MAX_EVENTS={SUBSET_DP_MAX_EVENTS} events, got {num}; "
            f"route larger sets to repro.decoders.blossom.match_events"
        )
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


class MWPMDecoder(Decoder):
    """Space-time MWPM decoder for one stabilizer type of a rotated surface code.

    Args:
        code: the surface code instance.
        stype: which stabilizer type's detection events this decoder handles.

    The matching graph is deterministic per ``(distance, stype)``, so every
    instance shares the cached one (:func:`get_matching_graph`).
    """

    def __init__(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
    ) -> None:
        super().__init__(code, stype)
        self._graph = get_matching_graph(code.distance, stype)

    @property
    def matching_graph(self) -> MatchingGraph:
        return self._graph

    # ------------------------------------------------------------------
    def decode(self, detections: np.ndarray) -> DecodeResult:
        matrix = self._as_detection_matrix(detections)
        rounds, ancillas = np.nonzero(matrix)
        if rounds.size == 0:
            return DecodeResult(correction=frozenset(), metadata={"num_events": 0})
        ancillas = ancillas.astype(np.int64)
        pairs, boundary_matches = self._match_indices(ancillas, rounds.astype(np.int64))
        bitmap = self._assemble_bitmap(ancillas, pairs, boundary_matches)
        data_qubits = self._code.data_qubits
        return DecodeResult(
            correction=frozenset(data_qubits[i] for i in np.flatnonzero(bitmap)),
            metadata={
                "num_events": int(rounds.size),
                "num_pairs": len(pairs),
                "num_boundary_matches": len(boundary_matches),
            },
        )

    def decode_events_bitmap(self, rounds: np.ndarray, ancillas: np.ndarray) -> np.ndarray:
        """Decode one trial's detection events given as flat index arrays.

        This is the off-chip-tier entry point used by
        :meth:`repro.clique.cascade.DecoderCascade._offchip_corrections`:
        the caller extracts all off-chip trials' events with a single
        ``np.nonzero`` pass and hands each trial's ``(rounds, ancillas)``
        slice here, skipping per-trial matrix validation, ``SpaceTimeEvent``
        construction, and coordinate-set assembly.  Events must arrive in
        row-major ``(round, ancilla)`` order — the order ``np.nonzero``
        produces — so that equal-weight ties break exactly as they do in
        :meth:`decode`; the returned uint8 bitmap (``code.data_index`` column
        order) is then bit-identical to the per-trial path.
        """
        ancillas = np.asarray(ancillas, dtype=np.int64)
        if ancillas.size == 0:
            return np.zeros(self._code.num_data_qubits, dtype=np.uint8)
        pairs, boundary_matches = self._match_indices(
            ancillas, np.asarray(rounds, dtype=np.int64)
        )
        return self._assemble_bitmap(ancillas, pairs, boundary_matches)

    def _assemble_bitmap(
        self,
        ancillas: np.ndarray,
        pairs: list[tuple[int, int]],
        boundary_matches: list[int],
    ) -> np.ndarray:
        """XOR the matched chains' correction paths into a data-qubit bitmap."""
        bitmap = np.zeros(self._code.num_data_qubits, dtype=np.uint8)
        data_index = self._code.data_index
        for i, j in pairs:
            for qubit in self._graph.spatial_path(int(ancillas[i]), int(ancillas[j])):
                bitmap[data_index[qubit]] ^= 1
        for i in boundary_matches:
            for qubit in self._graph.boundary_path(int(ancillas[i])):
                bitmap[data_index[qubit]] ^= 1
        return bitmap

    # ------------------------------------------------------------------
    #: Largest event count routed to the exact subset-DP solver; beyond it the
    #: O(2^n n) DP loses to blossom's polynomial scaling.
    _SMALL_CASE_LIMIT = 8

    def _match_small(
        self,
        distance: list[list[int]],
        boundary_distance: list[int],
    ) -> tuple[list[tuple[int, int]], list[int]]:
        return match_events_small(distance, boundary_distance)

    def _match_indices(
        self, ancillas: np.ndarray, rounds: np.ndarray
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Solve the event/boundary matching problem on flat event-index arrays.

        Both decode entry points (per-trial :meth:`decode` and the batched
        :meth:`decode_events_bitmap`) funnel through here, which is what
        guarantees their bit-identity on equal-weight ties.
        """
        num = int(ancillas.size)
        # All pairwise space-time distances in two vectorised gathers.
        distance = self._graph.spatial_distance_matrix[
            np.ix_(ancillas, ancillas)
        ] + np.abs(rounds[:, None] - rounds[None, :])
        boundary_distance = self._graph.boundary_distance_array[ancillas]

        if num <= self._SMALL_CASE_LIMIT:
            return self._match_small(distance.tolist(), boundary_distance.tolist())
        return blossom.match_events(distance, boundary_distance)

    def _match(
        self, events: list[SpaceTimeEvent]
    ) -> tuple[list[tuple[SpaceTimeEvent, SpaceTimeEvent]], list[SpaceTimeEvent]]:
        """Object-level wrapper around :meth:`_match_indices`."""
        num = len(events)
        ancillas = np.fromiter(
            (event.ancilla_index for event in events), dtype=np.int64, count=num
        )
        rounds = np.fromiter(
            (event.round for event in events), dtype=np.int64, count=num
        )
        pairs, boundary_matches = self._match_indices(ancillas, rounds)
        return (
            [(events[i], events[j]) for i, j in pairs],
            [events[i] for i in boundary_matches],
        )


__all__ = [
    "MWPMDecoder",
    "SUBSET_DP_MAX_EVENTS",
    "match_events_small",
]
