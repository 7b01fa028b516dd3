"""Space-time matching graph for phenomenological-noise decoding.

Detection events live on a three-dimensional lattice: the two spatial
dimensions of the ancilla grid plus the measurement-round (time) axis.
Under the paper's phenomenological noise model every edge has the same
weight, so the distance between two events decomposes into

    distance = spatial_distance(ancilla_a, ancilla_b) + |round_a - round_b|

where the spatial distance is the shortest chain of data-qubit errors
connecting the two ancillas, and the time component counts measurement
errors.  Chains may also terminate on the lattice boundary, which is modelled
as a virtual node each ancilla has a precomputed distance (and correction
path) to.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.types import Coord, StabilizerType

#: Sentinel node index representing the lattice boundary in the spatial graph.
BOUNDARY = -1


class MatchingGraph:
    """Precomputed spatial distances and correction paths for one stabilizer type.

    The graph's nodes are the ancillas of the given type plus a virtual
    boundary node.  Two ancillas are connected when they share a data qubit
    (a single data error flips both); an ancilla is connected to the boundary
    through each of its boundary data qubits (a single data error there flips
    only that ancilla).  All edges carry unit weight and are labelled by the
    data qubit whose correction they correspond to.
    """

    def __init__(self, code: RotatedSurfaceCode, stype: StabilizerType) -> None:
        self._code = code
        self._stype = stype
        ancillas = code.ancillas(stype)
        self._num_nodes = len(ancillas)
        index_of = code.ancilla_index(stype)

        # adjacency[i] -> list of (neighbor index or BOUNDARY, data qubit label)
        adjacency: list[list[tuple[int, Coord]]] = [[] for _ in ancillas]
        for ancilla in ancillas:
            i = ancilla.index
            for neighbor_coord, shared in zip(
                ancilla.clique_neighbors, ancilla.shared_qubits
            ):
                adjacency[i].append((index_of[neighbor_coord], shared))
            for boundary_qubit in ancilla.boundary_qubits:
                adjacency[i].append((BOUNDARY, boundary_qubit))
        self._adjacency = adjacency

        self._spatial_distance: list[list[int]] = []
        self._spatial_path: list[list[frozenset[Coord]]] = []
        self._boundary_distance: list[int] = []
        self._boundary_path: list[frozenset[Coord]] = []
        self._precompute()

    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        for source in range(self._num_nodes):
            distances, paths = self._bfs(source, allow_boundary=False)
            self._spatial_distance.append(distances)
            self._spatial_path.append(paths)
            boundary_distance, boundary_path = self._bfs_to_boundary(source)
            self._boundary_distance.append(boundary_distance)
            self._boundary_path.append(boundary_path)
        # Dense copies for batched consumers: pairwise event distances become
        # a single fancy-indexing gather instead of O(n^2) method calls.
        self._spatial_distance_matrix = np.asarray(
            self._spatial_distance, dtype=np.int64
        )
        self._boundary_distance_array = np.asarray(
            self._boundary_distance, dtype=np.int64
        )
        self._spatial_distance_matrix.flags.writeable = False
        self._boundary_distance_array.flags.writeable = False

    def _bfs(
        self, source: int, allow_boundary: bool
    ) -> tuple[list[int], list[frozenset[Coord]]]:
        """Breadth-first search over ancilla nodes, tracking correction paths."""
        distances = [-1] * self._num_nodes
        paths: list[frozenset[Coord]] = [frozenset()] * self._num_nodes
        distances[source] = 0
        queue: deque[int] = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor, qubit in self._adjacency[node]:
                if neighbor == BOUNDARY:
                    if not allow_boundary:
                        continue
                    continue  # boundary handled separately
                if distances[neighbor] == -1:
                    distances[neighbor] = distances[node] + 1
                    paths[neighbor] = paths[node] | {qubit}
                    queue.append(neighbor)
        return distances, paths

    def _bfs_to_boundary(self, source: int) -> tuple[int, frozenset[Coord]]:
        """Shortest path from an ancilla to the virtual boundary node."""
        distances = [-1] * self._num_nodes
        paths: list[frozenset[Coord]] = [frozenset()] * self._num_nodes
        distances[source] = 0
        queue: deque[int] = deque([source])
        best_distance = -1
        best_path: frozenset[Coord] = frozenset()
        while queue:
            node = queue.popleft()
            if best_distance != -1 and distances[node] >= best_distance:
                continue
            for neighbor, qubit in self._adjacency[node]:
                if neighbor == BOUNDARY:
                    candidate = distances[node] + 1
                    if best_distance == -1 or candidate < best_distance:
                        best_distance = candidate
                        best_path = paths[node] | {qubit}
                    continue
                if distances[neighbor] == -1:
                    distances[neighbor] = distances[node] + 1
                    paths[neighbor] = paths[node] | {qubit}
                    queue.append(neighbor)
        return best_distance, best_path

    # ------------------------------------------------------------------
    @property
    def code(self) -> RotatedSurfaceCode:
        return self._code

    @property
    def stabilizer_type(self) -> StabilizerType:
        return self._stype

    @property
    def num_ancillas(self) -> int:
        return self._num_nodes

    @property
    def spatial_distance_matrix(self) -> np.ndarray:
        """Pairwise ancilla-to-ancilla chain lengths, shape ``(n, n)`` (read-only)."""
        return self._spatial_distance_matrix

    @property
    def boundary_distance_array(self) -> np.ndarray:
        """Per-ancilla chain length to the boundary, shape ``(n,)`` (read-only)."""
        return self._boundary_distance_array

    @property
    def packed_path_words(self) -> np.ndarray:
        """Correction paths as packed data-qubit words, shape ``(n + 1, n + 1, words)``.

        Node ``n`` stands for the boundary: entry ``[a, b]`` is
        :meth:`spatial_path` of ancillas ``a`` and ``b``, ``[a, n]`` and
        ``[n, a]`` are :meth:`boundary_path` of ``a``, and ``[n, n]`` is
        empty.  Data qubit ``q`` (``code.data_index`` order) is bit ``q % 8``
        of byte ``q // 8`` of the entry's uint8 view, the little bit order of
        :mod:`repro.bitplane`, so XOR-ing entries composes chains and
        :meth:`unpack_paths` recovers the bitmap.  Built lazily on first
        access (read-only).
        """
        if not hasattr(self, "_packed_path_words"):
            data_index = self._code.data_index
            num_bytes = 8 * -(-self._code.num_data_qubits // 64)

            def packed(path: frozenset[Coord]) -> bytes:
                bits = sum(1 << data_index[qubit] for qubit in path)
                return bits.to_bytes(num_bytes, "little")

            boundary = [packed(path) for path in self._boundary_path]
            boundary.append(bytes(num_bytes))
            rows = [
                b"".join([packed(path) for path in paths] + [boundary[a]])
                for a, paths in enumerate(self._spatial_path)
            ]
            rows.append(b"".join(boundary))
            n = self._num_nodes
            words = (
                np.frombuffer(b"".join(rows), dtype=np.uint8)
                .reshape(n + 1, n + 1, num_bytes)
                .view(np.uint64)
            )
            self._packed_path_words = words
        return self._packed_path_words

    def unpack_paths(self, words: np.ndarray) -> np.ndarray:
        """Packed path words ``(..., words)`` as uint8 ``(..., num_data_qubits)`` bitmaps.

        The inverse of :attr:`packed_path_words`' packing, for single
        entries and XOR-compositions of them alike.
        """
        return np.unpackbits(
            np.ascontiguousarray(words).view(np.uint8),
            axis=-1,
            count=self._code.num_data_qubits,
            bitorder="little",
        )

    def spatial_distance(self, ancilla_a: int, ancilla_b: int) -> int:
        """Shortest data-error chain length connecting two ancillas."""
        return self._spatial_distance[ancilla_a][ancilla_b]

    def spatial_path(self, ancilla_a: int, ancilla_b: int) -> frozenset[Coord]:
        """Data qubits along one shortest chain between two ancillas."""
        return self._spatial_path[ancilla_a][ancilla_b]

    def boundary_distance(self, ancilla: int) -> int:
        """Shortest data-error chain length from an ancilla to the boundary."""
        return self._boundary_distance[ancilla]

    def boundary_path(self, ancilla: int) -> frozenset[Coord]:
        """Data qubits along one shortest chain from an ancilla to the boundary."""
        return self._boundary_path[ancilla]


@lru_cache(maxsize=64)
def get_matching_graph(distance: int, stype: StabilizerType) -> MatchingGraph:
    """Cached matching graph for a given code distance and stabilizer type."""
    from repro.codes.rotated_surface import get_code

    return MatchingGraph(get_code(distance), stype)


__all__ = ["BOUNDARY", "MatchingGraph", "get_matching_graph"]
