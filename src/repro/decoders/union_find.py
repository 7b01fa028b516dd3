"""Clustering (union-find style) decoder.

A lighter-weight alternative to MWPM in the spirit of the union-find decoder
of Delfosse and Nickerson: detection events grow clusters in the space-time
metric; clusters merge when their growth regions touch; a cluster becomes
*neutral* once it contains an even number of events or reaches the lattice
boundary.  Neutral clusters are then resolved locally — events are paired
greedily inside their own cluster (or matched to the boundary) and the
corresponding shortest-chain corrections are applied.

The decoder always produces a correction whose residual syndrome is zero,
but greedy in-cluster pairing gives up fault distance: on its own it is
less accurate than both MWPM and the Clique+MWPM cascade.  Logical failures (MWPM / union-find / Clique+MWPM, 20,000 seeded
phenomenological-noise trials on the ``repro-results-v3`` noise stream) were
107 / 474 / 235 at d=5, p=1e-2 and 5 / 48 / 14 at d=7, p=5e-3.  It is
offered as a cheaper off-chip tier behind Clique
(``tiers="clique,union_find"``), not as a more accurate one.
"""

from __future__ import annotations

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder, DecodeResult
from repro.decoders.matching_graph import SpaceTimeEvent, get_matching_graph
from repro.types import Coord, StabilizerType


class _DisjointSets:
    """Minimal union-find structure with path compression."""

    def __init__(self, count: int) -> None:
        self._parent = list(range(count))

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        """Merge the two components."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a


class ClusteringDecoder(Decoder):
    """Union-find style clustering decoder over the space-time matching graph.

    Args:
        code: the surface code instance.
        stype: which stabilizer type's detection events this decoder handles.

    The matching graph is the shared cached one (:func:`get_matching_graph`).
    """

    def __init__(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
    ) -> None:
        super().__init__(code, stype)
        self._graph = get_matching_graph(code.distance, stype)
        # Plain-list copies of the dense distance tables: the hot path sees
        # tiny event sets (a handful per off-chip trial), where Python list
        # indexing beats numpy fancy-gather fixed costs by a wide margin.
        self._spatial_distance_rows = self._graph.spatial_distance_matrix.tolist()
        self._boundary_distance_list = self._graph.boundary_distance_array.tolist()

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

        The per-window hook behind the off-chip tier's
        :meth:`~repro.decoders.base.Decoder.decode_event_windows`, with no
        event objects on the hot path: cluster growth and greedy resolution
        run on plain int lists plus the matching graph's dense distance
        arrays and packed path table.  Events must arrive in row-major
        ``(round, ancilla)`` order — the order ``np.nonzero`` produces — and
        scan orders match :meth:`decode`'s object-level path statement for
        statement, so the returned uint8 bitmap is bit-identical to the
        per-trial path.
        """
        ancilla_list = np.asarray(ancillas, dtype=np.int64).tolist()
        count = len(ancilla_list)
        if count == 0:
            return np.zeros(self._code.num_data_qubits, dtype=np.uint8)
        paths = self._graph.packed_path_words
        boundary = paths.shape[0] - 1
        if count == 1:
            # A lone event always grows to the boundary and resolves there.
            return self._graph.unpack_paths(paths[ancilla_list[0], boundary])
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
        clusters, _ = self._grow_clusters_core(pair_distance, boundary_distance)

        left: list[int] = []
        right: list[int] = []
        for members in clusters:
            # Mirrors _resolve_cluster: boundary-match the first
            # closest-to-boundary event of an odd cluster, then greedily pair
            # the rest (pop the last, scan remaining in order for the first
            # nearest partner) — collecting chain ends whose precomputed
            # packed paths are XOR-ed at the end, instead of building
            # coordinate sets.
            remaining = list(members)
            if len(remaining) % 2 == 1:
                closest = min(remaining, key=lambda i: boundary_distance[i])
                remaining.remove(closest)
                left.append(ancilla_list[closest])
                right.append(boundary)
            while remaining:
                event = remaining.pop()
                row = pair_distance[event]
                partner = min(remaining, key=lambda other: row[other])
                remaining.remove(partner)
                left.append(ancilla_list[event])
                right.append(ancilla_list[partner])
        return self._graph.unpack_paths(
            np.bitwise_xor.reduce(paths[left, right], axis=0)
        )

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
        threads.
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


__all__ = ["ClusteringDecoder"]
