"""Clustering (union-find style) decoder.

A lighter-weight alternative to MWPM in the spirit of the union-find decoder
of Delfosse and Nickerson: detection events grow clusters in the space-time
metric; clusters merge when their growth regions touch; a cluster becomes
*neutral* once it contains an even number of events or reaches the lattice
boundary.  Neutral clusters are then resolved locally — events are paired
greedily inside their own cluster (or matched to the boundary) and the
corresponding shortest-chain corrections are applied.

The decoder always produces a correction whose residual syndrome is zero;
its accuracy sits between the Clique decoder and MWPM, which makes it a
useful point of comparison in the "deeper hierarchy of decoders" direction
the paper sketches in Section 8.1.
"""

from __future__ import annotations

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders import blossom
from repro.decoders.base import Decoder, DecodeResult
from repro.decoders.matching_graph import MatchingGraph, SpaceTimeEvent
from repro.decoders.mwpm import SUBSET_DP_MAX_EVENTS, match_events_small
from repro.exceptions import ConfigurationError
from repro.types import Coord, StabilizerType

#: Default (floor) escalation threshold used when the clustering decoder sits
#: as an *intermediate* cascade tier.  Intermediate-tier clusters up to
#: :data:`~repro.decoders.mwpm.SUBSET_DP_MAX_EVENTS` are resolved with the
#: exact subset-DP matcher (cheap at cluster scale: the DP is exponential in
#: the *cluster* size, not the trial's event count), larger kept clusters by
#: the in-tree blossom matcher; only the members of clusters beyond the
#: threshold — the cases where global blossom-grade matching actually earns
#: its cost — escalate to the next tier.
DEFAULT_ESCALATION_CLUSTER_SIZE = 8

_NO_ESCALATION = np.empty(0, dtype=np.int64)


def default_escalation_cluster_size(distance: int) -> int:
    """Adaptive per-distance escalation threshold for intermediate tiers.

    Tuned offline against measured in-tree blossom cost (the `blossom`
    section of ``BENCH_memory.json``): deeper codes produce larger *benign*
    clusters whose exact local resolution is still far cheaper than shipping
    their events to the final blossom tier, so the threshold grows with
    distance — ``d + 3``, floored at :data:`DEFAULT_ESCALATION_CLUSTER_SIZE`
    and capped at the subset-DP limit (d=3 -> 8, d=7 -> 10, d=13 -> 16).
    Deliberately a *deterministic function of the distance*, never a runtime
    timing measurement, so seeded results stay machine-independent.
    """
    return min(SUBSET_DP_MAX_EVENTS, max(DEFAULT_ESCALATION_CLUSTER_SIZE, distance + 3))


class _DisjointSets:
    """Minimal union-find structure with path compression and size tracking."""

    def __init__(self, count: int) -> None:
        self._parent = list(range(count))
        self._size = [1] * count

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the two components; return the merged component's size."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a
            self._size[root_a] += self._size[root_b]
        return self._size[root_a]


class ClusteringDecoder(Decoder):
    """Union-find style clustering decoder over the space-time matching graph.

    Args:
        code: the surface code instance.
        stype: which stabilizer type's detection events this decoder handles.
        matching_graph: optionally share a precomputed :class:`MatchingGraph`.
        escalation_cluster_size: when set, enables the *intermediate-tier*
            mode used by :class:`~repro.clique.cascade.DecoderCascade`: every
            grown cluster holding at most this many events is resolved here,
            matched *exactly* — by the subset-DP matcher up to
            :data:`~repro.decoders.mwpm.SUBSET_DP_MAX_EVENTS` events, by the
            in-tree blossom matcher beyond it — while each larger cluster
            escalates only its own members (an index subset of the trial's
            events, not the whole trial) to the next tier via
            :meth:`decode_events_tiered`.  ``None`` (the default) never
            escalates, i.e. final-tier behaviour with the decoder's classic
            greedy intra-cluster pairing; :meth:`decode` and
            :meth:`decode_events_bitmap` always resolve everything regardless
            of this setting.
    """

    def __init__(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        matching_graph: MatchingGraph | None = None,
        escalation_cluster_size: int | None = None,
    ) -> None:
        super().__init__(code, stype)
        self._graph = matching_graph or MatchingGraph(code, stype)
        if escalation_cluster_size is not None and escalation_cluster_size < 1:
            raise ConfigurationError(
                f"escalation_cluster_size must be >= 1 (or None), "
                f"got {escalation_cluster_size}"
            )
        self._escalation_cluster_size = escalation_cluster_size
        # Plain-list copies of the dense distance tables: the hot path sees
        # tiny event sets (a handful per off-chip trial), where Python list
        # indexing beats numpy fancy-gather fixed costs by a wide margin.
        self._spatial_distance_rows = self._graph.spatial_distance_matrix.tolist()
        self._boundary_distance_list = self._graph.boundary_distance_array.tolist()

    @property
    def escalation_cluster_size(self) -> int | None:
        return self._escalation_cluster_size

    # ------------------------------------------------------------------
    def decode(self, detections: np.ndarray) -> DecodeResult:
        matrix = self._as_detection_matrix(detections)
        events = [
            SpaceTimeEvent(round=int(r), ancilla_index=int(a))
            for r, a in zip(*np.nonzero(matrix))
        ]
        if not events:
            return DecodeResult(correction=frozenset(), metadata={"num_events": 0})

        clusters, growth_steps = self._grow_clusters(events)
        correction: set[Coord] = set()
        for members in clusters:
            correction ^= self._resolve_cluster([events[i] for i in members])
        return DecodeResult(
            correction=frozenset(correction),
            metadata={
                "num_events": len(events),
                "num_clusters": len(clusters),
                "growth_steps": growth_steps,
            },
        )

    def decode_events_bitmap(self, rounds: np.ndarray, ancillas: np.ndarray) -> np.ndarray:
        """Decode one trial's detection events given as flat index arrays.

        Final-tier entry point (see
        :meth:`repro.clique.cascade.DecoderCascade._offchip_corrections`).
        Events must arrive in row-major ``(round, ancilla)`` order — the
        order ``np.nonzero`` produces — so greedy pairing ties break exactly
        as in :meth:`decode`; the returned uint8 bitmap is then bit-identical
        to the per-trial path.
        """
        bitmap, _ = self._decode_events_indices(rounds, ancillas, may_escalate=False)
        return bitmap

    def decode_events_tiered(
        self, rounds: np.ndarray, ancillas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intermediate-tier decode-or-escalate over flat event index arrays.

        Returns ``(bitmap, escalated)``: ``bitmap`` is the correction for
        every grown cluster holding at most ``escalation_cluster_size``
        events — each resolved *exactly* in place — and ``escalated`` is the
        sorted int64 array of event positions (indices into the caller's
        ``rounds``/``ancillas``) belonging to larger clusters, which the
        caller ships to the next tier.  An empty ``escalated`` means the
        trial is fully resolved here.

        Escalation is *per cluster*, not per trial: a trial with many small
        clusters and one sprawling one keeps the small clusters' corrections
        in this tier and escalates only the sprawling cluster's own events.
        The decision keys on the actual space-time structure of the trial
        (grown cluster sizes), not the raw event count.
        """
        return self._decode_events_indices(rounds, ancillas, may_escalate=True)

    def _decode_events_indices(
        self, rounds: np.ndarray, ancillas: np.ndarray, may_escalate: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared index-based decode path (no event objects on the hot path).

        Cluster growth and greedy resolution run on plain int lists plus the
        matching graph's dense distance/path-bitmap arrays; scan orders match
        :meth:`decode`'s object-level path statement for statement, so the
        resulting bitmap is bit-identical to per-trial decoding.
        """
        ancilla_list = np.asarray(ancillas, dtype=np.int64).tolist()
        count = len(ancilla_list)
        if count == 0:
            return np.zeros(self._code.num_data_qubits, dtype=np.uint8), _NO_ESCALATION
        boundary_paths = self._graph.boundary_path_bitmaps
        if count == 1:
            # A lone event always grows to the boundary and resolves there;
            # size-1 clusters never exceed an escalation threshold (>= 1).
            return boundary_paths[ancilla_list[0]].copy(), _NO_ESCALATION
        round_list = np.asarray(rounds, dtype=np.int64).tolist()
        spatial_rows = self._spatial_distance_rows
        pair_distance = [
            [
                row[other] + (round_a - round_b if round_a >= round_b else round_b - round_a)
                for other, round_b in zip(ancilla_list, round_list)
            ]
            for row, round_a in zip(
                (spatial_rows[a] for a in ancilla_list), round_list
            )
        ]
        boundary_distance = [self._boundary_distance_list[a] for a in ancilla_list]
        threshold = self._escalation_cluster_size
        clusters, _ = self._grow_clusters_core(pair_distance, boundary_distance)

        bitmap = np.zeros(self._code.num_data_qubits, dtype=np.uint8)
        spatial_paths = self._graph.spatial_path_bitmaps
        exact = may_escalate and threshold is not None
        escalated: list[int] = []
        for members in clusters:
            if exact:
                if len(members) > threshold:
                    # Oversized cluster: escalate its members only — the
                    # rest of the trial resolves right here.
                    escalated.extend(members)
                    continue
                # Intermediate-tier mode: clusters small enough to stay here
                # are resolved *exactly* — subset-DP while the O(2^n) tables
                # stay tiny, in-tree blossom for larger kept clusters (the
                # DP's hard cap is SUBSET_DP_MAX_EVENTS).
                sub_distance = [
                    [pair_distance[i][j] for j in members] for i in members
                ]
                sub_boundary = [boundary_distance[i] for i in members]
                if len(members) <= SUBSET_DP_MAX_EVENTS:
                    pairs, boundary_matches = match_events_small(
                        sub_distance, sub_boundary
                    )
                else:
                    pairs, boundary_matches = blossom.match_events(
                        sub_distance, sub_boundary
                    )
                for i, j in pairs:
                    bitmap ^= spatial_paths[
                        ancilla_list[members[i]], ancilla_list[members[j]]
                    ]
                for i in boundary_matches:
                    bitmap ^= boundary_paths[ancilla_list[members[i]]]
                continue
            # Final-tier mode mirrors _resolve_cluster: boundary-match the
            # first closest-to-boundary event of an odd cluster, then greedily
            # pair the rest (pop the last, scan remaining in order for the
            # first nearest partner) — XORing precomputed chain bitmaps
            # instead of building coordinate sets.
            remaining = list(members)
            if len(remaining) % 2 == 1:
                closest = min(remaining, key=lambda i: boundary_distance[i])
                remaining.remove(closest)
                bitmap ^= boundary_paths[ancilla_list[closest]]
            while remaining:
                event = remaining.pop()
                row = pair_distance[event]
                partner = min(remaining, key=lambda other: row[other])
                remaining.remove(partner)
                bitmap ^= spatial_paths[ancilla_list[event], ancilla_list[partner]]
        if not escalated:
            return bitmap, _NO_ESCALATION
        # Escalated subsets must preserve the row-major event order the
        # caller's np.nonzero produced — downstream tiers' equal-weight
        # tie-breaks depend on it.
        escalated.sort()
        return bitmap, np.asarray(escalated, dtype=np.int64)

    # ------------------------------------------------------------------
    def _grow_clusters(
        self, events: list[SpaceTimeEvent]
    ) -> tuple[list[list[int]], int]:
        """Grow clusters until every cluster is even or touches the boundary.

        Object-level wrapper around :meth:`_grow_clusters_core`: pair and
        boundary distances come from the matching graph's dense arrays in two
        vectorised gathers instead of O(n^2) Python method calls.
        """
        count = len(events)
        ancilla = np.fromiter(
            (event.ancilla_index for event in events), dtype=np.int64, count=count
        )
        event_rounds = np.fromiter(
            (event.round for event in events), dtype=np.int64, count=count
        )
        pair_distance = (
            self._graph.spatial_distance_matrix[np.ix_(ancilla, ancilla)]
            + np.abs(event_rounds[:, None] - event_rounds[None, :])
        ).tolist()
        boundary_distance = self._graph.boundary_distance_array[ancilla].tolist()
        return self._grow_clusters_core(pair_distance, boundary_distance)

    def _grow_clusters_core(
        self,
        pair_distance: list[list[int]],
        boundary_distance: list[int],
    ) -> tuple[list[list[int]], int]:
        """Grow clusters over precomputed distance tables (plain int lists).

        Purely functional: all growth state (radii, distances) is local, so
        the decoder instance stays stateless and safe to share across
        threads.  Growth always runs to neutrality: per-cluster escalation
        needs the *final* cluster decomposition (to resolve the small
        clusters and name the oversized ones' members), so there is no
        early-abort shortcut anymore.
        """
        count = len(boundary_distance)
        sets = _DisjointSets(count)
        radius = [0] * count  # per-event growth radius; cluster radius is the max

        def cluster_members() -> dict[int, list[int]]:
            members: dict[int, list[int]] = {}
            for i in range(count):
                members.setdefault(sets.find(i), []).append(i)
            return members

        def cluster_is_neutral(members: list[int]) -> bool:
            if len(members) % 2 == 0:
                return True
            return any(boundary_distance[i] <= radius[i] for i in members)

        growth_steps = 0
        # The space-time graph diameter bounds the number of growth rounds.
        max_steps = 2 * self._code.distance + 2
        while growth_steps < max_steps:
            members = cluster_members()
            odd_roots = [
                root
                for root, items in members.items()
                if not cluster_is_neutral(items)
            ]
            if not odd_roots:
                break
            growth_steps += 1
            for root in odd_roots:
                for i in members[root]:
                    radius[i] += 1
            # Merge any clusters whose growth regions now touch.
            for i in range(count):
                row = pair_distance[i]
                radius_i = radius[i]
                for j in range(i + 1, count):
                    if row[j] <= radius_i + radius[j] and sets.find(i) != sets.find(j):
                        sets.union(i, j)
        return list(cluster_members().values()), growth_steps

    def _resolve_cluster(self, members: list[SpaceTimeEvent]) -> frozenset[Coord]:
        """Pair up events inside a neutral cluster and emit their correction."""
        correction: set[Coord] = set()
        remaining = list(members)
        if len(remaining) % 2 == 1:
            # Match the event closest to the boundary against the boundary.
            closest = min(remaining, key=self._graph.event_boundary_distance)
            remaining.remove(closest)
            correction ^= self._graph.correction_to_boundary(closest)
        # Greedy nearest-neighbour pairing of the rest.
        while remaining:
            event = remaining.pop()
            partner = min(
                remaining, key=lambda other: self._graph.event_distance(event, other)
            )
            remaining.remove(partner)
            correction ^= self._graph.correction_between(event, partner)
        return frozenset(correction)


__all__ = [
    "DEFAULT_ESCALATION_CLUSTER_SIZE",
    "ClusteringDecoder",
    "default_escalation_cluster_size",
]
