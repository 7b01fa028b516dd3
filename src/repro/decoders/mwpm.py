"""Minimum Weight Perfect Matching decoder (the paper's off-chip baseline).

MWPM pairs up detection events (or matches them to the lattice boundary) so
that the total length of the implied error chains is minimal, which under an
independent-error model is the most probable explanation of the observed
syndrome (Dennis et al., "Topological quantum memory").

The decoder works on *event windows*: one trial's (or one off-chip window's)
detection events as flat ``(round, ancilla)`` arrays, many windows per call
(:meth:`MWPMDecoder.decode_event_windows`).

* Small windows — at most :data:`ENUMERATION_MAX_EVENTS` events, the common
  case for the cascade's off-chip tier, which only sees the rare complex
  rounds — are solved together, one event count at a time: every
  pairing-or-boundary assignment of ``k`` events is enumerated once, each
  window's assignment costs are one ``(windows, terms) x (terms,
  assignments)`` integer product, and the first minimum wins.
* Larger windows go one by one to the in-tree O(n^3) blossom matcher
  (:mod:`repro.decoders.blossom`), which handles the boundary *implicitly*
  through a profit transformation instead of a ``2n``-node auxiliary graph.
  Only the ``n(n-1)/2`` event pairs are built (no dense ``n x n`` table),
  and the matcher matches every already-tight pair of single events after
  each dual step, which halves its stages on deep-history windows.  Its
  equal-weight tie-breaks are pinned on seeded runs
  (``tests/decoders/test_blossom.py::TestLargeWindowPin``).

Corrections are XORs of precomputed chain paths kept as packed words
(:attr:`~repro.decoders.matching_graph.MatchingGraph.packed_path_words`).
The decoder has no heavy dependencies.  The networkx auxiliary-graph
formulation and a scalar subset-DP are kept in the test suite as
differential-test oracles.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import bitplane
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders import blossom
from repro.decoders.base import Decoder, DecodeResult, PackedBatchDecodeResult
from repro.decoders.matching_graph import MatchingGraph, get_matching_graph
from repro.types import StabilizerType

#: Largest window solved by enumeration; larger ones go to blossom.  The
#: enumeration breaks equal-weight ties exactly as a subset-DP that scans the
#: lowest free event's options in order (boundary, then partners ascending);
#: blossom breaks them differently, so moving this cut-off changes seeded
#: outputs.  At 8 events there are 764 assignments over 36 terms.
ENUMERATION_MAX_EVENTS = 8


@lru_cache(maxsize=None)
def _assignment_table(
    num_events: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pairing-or-boundary assignment of ``num_events`` events, in DFS order.

    The DFS resolves the lowest free event first — to the boundary, then to
    each free partner in ascending order — so the first minimum-cost
    assignment in this order is the one a subset-DP with strict-improvement
    updates in that scan order picks, ties included.

    Returns ``(incidence, left, right, heads, tails)``:

    * ``incidence``: int32 ``(terms, assignments)`` 0/1 matrix over the
      terms ``[boundary(0), ..., boundary(k-1), pair(0,1), pair(0,2), ...,
      pair(k-2,k-1)]``.
    * ``left``, ``right``: int ``(assignments, k)`` chain ends per
      assignment as event slots, slot ``k`` standing for the boundary;
      ``(i, k)`` is a boundary match, ``(i, j)`` a pair, and unused rows are
      ``(k, k)`` (an empty chain).
    * ``heads``, ``tails``: the pair terms' event slots, in term order.

    The arrays are shared per process, so they are read-only.
    """
    k = num_events
    heads, tails = np.triu_indices(k, k=1)
    pair_term = {
        pair: k + index
        for index, pair in enumerate(zip(heads.tolist(), tails.tolist()))
    }
    assignments: list[list[tuple[int, int]]] = []

    def extend(free: tuple[int, ...], chains: list[tuple[int, int]]) -> None:
        if not free:
            assignments.append(chains)
            return
        low, rest = free[0], free[1:]
        extend(rest, chains + [(low, k)])
        for index, partner in enumerate(rest):
            extend(rest[:index] + rest[index + 1 :], chains + [(low, partner)])

    extend(tuple(range(k)), [])
    incidence = np.zeros((k + len(pair_term), len(assignments)), dtype=np.int32)
    left = np.full((len(assignments), k), k, dtype=np.intp)
    right = np.full((len(assignments), k), k, dtype=np.intp)
    for column, chains in enumerate(assignments):
        for row, (i, j) in enumerate(chains):
            incidence[i if j == k else pair_term[i, j], column] = 1
            left[column, row], right[column, row] = i, j
    tables = (incidence, left, right, heads, tails)
    for table in tables:
        table.flags.writeable = False
    return tables


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
        bitmap = self.decode_events_bitmap(rounds, ancillas)
        data_qubits = self._code.data_qubits
        return DecodeResult(
            correction=frozenset(data_qubits[i] for i in np.flatnonzero(bitmap)),
            metadata={"num_events": int(rounds.size)},
        )

    def decode_events_bitmap(self, rounds: np.ndarray, ancillas: np.ndarray) -> np.ndarray:
        """Decode one window's events: :meth:`decode_event_windows` with one window."""
        bounds = np.array([0, np.size(rounds)], dtype=np.int64)
        return self.decode_event_windows(rounds, ancillas, bounds)[0]

    def decode_batch_packed(
        self, detections: np.ndarray, trials: int
    ) -> PackedBatchDecodeResult:
        """Native packed decode: every trial with events is one window of one call.

        Trials without events are skipped (their correction is empty), and
        the rest are read sparsely from the planes
        (:func:`repro.bitplane.event_windows`) in ``np.nonzero`` order, so
        the result is byte-identical to the base class's per-trial
        :meth:`decode` loop, including its all-zero round counts.
        """
        planes = self._as_packed_detection_batch(detections, trials)
        corrections = np.zeros(
            (self._code.num_data_qubits, planes.shape[2]), dtype=np.uint64
        )
        window_trials, rounds, ancillas, bounds = bitplane.event_windows(planes)
        if window_trials.size:
            bitplane.scatter_xor_trial_bits(
                corrections,
                window_trials,
                self.decode_event_windows(rounds, ancillas, bounds),
            )
        return PackedBatchDecodeResult(
            corrections=corrections,
            trials=trials,
            onchip_rounds=np.zeros(trials, dtype=np.int64),
            total_rounds=np.zeros(trials, dtype=np.int64),
        )

    def decode_event_windows(
        self, rounds: np.ndarray, ancillas: np.ndarray, bounds: np.ndarray
    ) -> np.ndarray:
        """Decode many event windows in one call (see :class:`Decoder`).

        Windows are grouped by event count: those of at most
        :data:`ENUMERATION_MAX_EVENTS` events are solved together per count
        by enumeration, larger ones one by one by blossom, and every
        window's chains are XOR-ed from the packed path table.  Each
        window's correction depends on its own events only, so a batch
        decodes exactly as its windows would one call each.
        """
        rounds = np.asarray(rounds, dtype=np.int64)
        ancillas = np.asarray(ancillas, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        counts = np.diff(bounds)
        paths = self._graph.packed_path_words
        words = np.zeros((counts.size, paths.shape[2]), dtype=np.uint64)
        # Distinct nonzero event counts, ascending (np.unique would import
        # numpy.ma on first use, a peak-RSS cost for nothing).
        for count in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
            windows = np.flatnonzero(counts == count)
            if count <= ENUMERATION_MAX_EVENTS:
                words[windows] = self._enumerate_windows(
                    rounds, ancillas, bounds[windows], count
                )
                continue
            boundary_row = paths.shape[0] - 1
            for window in windows.tolist():
                events = slice(bounds[window], bounds[window + 1])
                window_ancillas = ancillas[events]
                pairs, boundary_matches = self._match_large(
                    window_ancillas, rounds[events]
                )
                ends = window_ancillas.tolist()
                left = [ends[i] for i, _ in pairs] + [
                    ends[i] for i in boundary_matches
                ]
                right = [ends[j] for _, j in pairs] + [boundary_row] * len(
                    boundary_matches
                )
                words[window] = np.bitwise_xor.reduce(paths[left, right], axis=0)
        return self._graph.unpack_paths(words)

    def _enumerate_windows(
        self,
        rounds: np.ndarray,
        ancillas: np.ndarray,
        starts: np.ndarray,
        count: int,
    ) -> np.ndarray:
        """Packed corrections of windows of ``count`` events each, by enumeration."""
        incidence, left, right, heads, tails = _assignment_table(count)
        slots = starts[:, None] + np.arange(count)
        window_ancillas, window_rounds = ancillas[slots], rounds[slots]
        costs = np.concatenate(
            [
                self._graph.boundary_distance_array[window_ancillas],
                self._graph.spatial_distance_matrix[
                    window_ancillas[:, heads], window_ancillas[:, tails]
                ]
                + np.abs(window_rounds[:, heads] - window_rounds[:, tails]),
            ],
            axis=1,
        )
        # einsum's own int32 loop: exact, faster here than an int64 matmul,
        # and unlike a float matmul it never starts BLAS (whose buffers show
        # in peak RSS).  Costs are sums of at most 8 chain lengths.
        totals = np.einsum("wt,tm->wm", costs.astype(np.int32), incidence)
        choice = np.argmin(totals, axis=1)
        paths = self._graph.packed_path_words
        ends = np.concatenate(
            [
                window_ancillas,
                np.full((starts.size, 1), paths.shape[0] - 1, dtype=np.int64),
            ],
            axis=1,
        )
        windows = np.arange(starts.size)[:, None]
        chains = paths[ends[windows, left[choice]], ends[windows, right[choice]]]
        return np.bitwise_xor.reduce(chains, axis=1)

    def _match_large(
        self, ancillas: np.ndarray, rounds: np.ndarray
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Blossom's ``(pairs, boundary)`` event-index assignment for one window."""
        # Every event pair i < j in row-major order, the matcher's edge order
        # (np.triu_indices, at a third of its cost).  Not cached per event
        # count: a table per window size seen costs more peak memory than
        # rebuilding it.
        events = np.arange(ancillas.size)
        heads, tails = np.nonzero(events[:, None] < events[None, :])
        return blossom.match_event_pairs(
            self._graph.boundary_distance_array[ancillas],
            heads,
            tails,
            self._graph.spatial_distance_matrix[ancillas[heads], ancillas[tails]]
            + np.abs(rounds[heads] - rounds[tails]),
        )


__all__ = ["ENUMERATION_MAX_EVENTS", "MWPMDecoder"]
