"""The Clique decoder proper (Section 4.2 and Figs. 5-6 of the paper).

Decision rule, for every ancilla ``a`` whose syndrome bit is set (an *active
clique*):

* count how many of its clique leaves (same-type neighbouring ancillas) are
  also set;
* **odd** count  -> the active bit is explained by isolated single data
  errors; the correction flips the data qubit shared with each set leaf;
* **even** count -> a longer chain is present, unless the clique sits on the
  lattice boundary and *no* leaf is set, in which case a single data error on
  one of the clique's boundary qubits explains it (the paper's "1+1" and
  "1+2" special cases) and flipping any one such qubit is a valid correction;
* any active clique judged complex makes the whole signature complex and the
  syndrome is handed to the off-chip decoder.

The decision logic is a handful of combinational gates per clique (Fig. 6),
which is what makes the decoder cheap enough for cryogenic implementation;
its hardware cost is modelled in :mod:`repro.hardware`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clique.cliques import Clique, build_cliques
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder, DecodeResult
from repro.types import Coord, StabilizerType


@dataclass(frozen=True)
class _PackedCliqueTables:
    """Precomputed index tables for the uint64 bitplane decision helpers.

    ``boundary_mask`` holds one all-ones/all-zeros word per clique (the
    has-boundary flag broadcast over 64 trials).  The contribution tables
    flatten the one-hot correction matrices into sparse (source, target
    qubit) pairs sorted by target so a single ``np.bitwise_or.reduceat``
    collapses same-qubit contributions with the same set-union semantics as
    :meth:`CliqueDecoder.correction_bitmap`.
    """

    boundary_mask: np.ndarray  # (num_cliques, 1) uint64
    leaf_rows: np.ndarray  # (K_leaf,) flat 4*clique + slot indices
    lone_cliques: np.ndarray  # (K_lone,) clique indices with a boundary qubit
    order: np.ndarray  # (K_leaf + K_lone,) argsort by target qubit
    segment_starts: np.ndarray  # reduceat starts into the sorted contributions
    target_qubits: np.ndarray  # unique target qubits, one per segment


def clique_rule(active: bool, set_neighbor_count: int, has_boundary: bool) -> bool:
    """The per-clique decision of Fig. 5: return True when the clique is *complex*.

    Args:
        active: whether the clique's primary ancilla is set.
        set_neighbor_count: how many of its clique leaves are set.
        has_boundary: whether the clique owns at least one boundary data qubit.
    """
    if not active:
        return False
    if set_neighbor_count % 2 == 1:
        return False
    if set_neighbor_count == 0 and has_boundary:
        return False
    return True


@dataclass(frozen=True)
class CliqueDecision:
    """Outcome of running the Clique decision logic on one signature.

    Attributes:
        is_trivial: True when every active clique is locally explainable and
            the correction below is valid; False when the signature must go
            off-chip.
        correction: data qubits to flip (empty when ``is_trivial`` is False or
            the signature was all zeros).
        active_cliques: coordinates of the ancillas that were set.
        complex_cliques: coordinates of the active ancillas whose local parity
            test failed (non-empty exactly when ``is_trivial`` is False).
    """

    is_trivial: bool
    correction: frozenset[Coord] = frozenset()
    active_cliques: tuple[Coord, ...] = ()
    complex_cliques: tuple[Coord, ...] = ()

    @property
    def is_all_zeros(self) -> bool:
        return not self.active_cliques


class CliqueDecoder(Decoder):
    """Lightweight local decoder for one stabilizer type of a surface code.

    The decoder is stateless between calls; all lattice structure is
    precomputed at construction time into flat numpy index tables so that the
    decision for a full signature is a few vectorised operations (mirroring
    the constant-depth combinational hardware it models).
    """

    def __init__(self, code: RotatedSurfaceCode, stype: StabilizerType) -> None:
        super().__init__(code, stype)
        self._cliques = build_cliques(code, stype)
        num = len(self._cliques)
        # Cliques with fewer than four leaves are padded with index ``num``,
        # which addresses the always-zero sentinel column appended to the
        # syndrome inside :meth:`complex_mask`.
        self._neighbor_table = np.full((num, 4), num, dtype=np.int64)
        for clique in self._cliques:
            for slot, neighbor_index in enumerate(clique.neighbor_indices):
                self._neighbor_table[clique.ancilla_index, slot] = neighbor_index
        self._has_boundary = np.array(
            [clique.has_boundary for clique in self._cliques], dtype=bool
        )
        # One-hot gather tables for fully vectorised correction assembly
        # (mirroring the index tables a hardware implementation would bake
        # into its correction ROM): row ``4*i + slot`` of the leaf table maps
        # "clique i sees its slot-th leaf set" to the shared data qubit, and
        # row ``i`` of the boundary table maps "clique i active with no set
        # leaf" to its first boundary qubit.
        data_index = code.data_index
        num_data = code.num_data_qubits
        self._leaf_correction_table = np.zeros((num * 4, num_data), dtype=np.int64)
        self._boundary_correction_table = np.zeros((num, num_data), dtype=np.int64)
        for clique in self._cliques:
            for slot, shared in enumerate(clique.shared_qubits):
                row = clique.ancilla_index * 4 + slot
                self._leaf_correction_table[row, data_index[shared]] = 1
            if clique.boundary_qubits:
                self._boundary_correction_table[
                    clique.ancilla_index, data_index[clique.boundary_qubits[0]]
                ] = 1
        self._packed_tables_cache: _PackedCliqueTables | None = None

    @property
    def cliques(self) -> tuple[Clique, ...]:
        return self._cliques

    # ------------------------------------------------------------------
    # Vectorised decision helpers
    # ------------------------------------------------------------------
    def complex_mask(self, signatures: np.ndarray) -> np.ndarray:
        """Per-clique complex flags for a batch of signatures.

        Args:
            signatures: array of shape ``(..., num_ancillas)`` with 0/1 entries.

        Returns:
            Boolean array of the same shape: True where the corresponding
            clique is active and judged complex.
        """
        signatures = np.asarray(signatures, dtype=np.uint8) & 1
        padded = np.concatenate(
            [signatures, np.zeros(signatures.shape[:-1] + (1,), dtype=np.uint8)],
            axis=-1,
        )
        neighbor_counts = padded[..., self._neighbor_table].sum(axis=-1)
        active = signatures.astype(bool)
        even = neighbor_counts % 2 == 0
        boundary_escape = (neighbor_counts == 0) & self._has_boundary
        return active & even & ~boundary_escape

    def is_trivial_batch(self, signatures: np.ndarray) -> np.ndarray:
        """True per signature row when no clique is complex (on-chip decodable)."""
        return ~self.complex_mask(signatures).any(axis=-1)

    def correction_bitmap(self, signatures: np.ndarray) -> np.ndarray:
        """Vectorised correction assembly for a batch of *trivial* signatures.

        Args:
            signatures: array of shape ``(..., num_ancillas)`` with 0/1
                entries; every row must already have passed
                :meth:`is_trivial_batch` (rows with complex cliques produce
                garbage, never an error).

        Returns:
            uint8 bitmap of shape ``(..., num_data_qubits)`` in
            ``code.data_index`` column order, equal per row to the bitmap of
            :meth:`decide`'s ``correction`` set: within one signature,
            contributions from different cliques to the same qubit collapse
            (set-union semantics), matching the idempotent hardware OR.
        """
        signatures = np.asarray(signatures, dtype=np.uint8) & 1
        batch_shape = signatures.shape[:-1]
        num = len(self._cliques)
        padded = np.concatenate(
            [signatures, np.zeros(batch_shape + (1,), dtype=np.uint8)], axis=-1
        )
        leaf_set = padded[..., self._neighbor_table].astype(bool)
        active = signatures.astype(bool)
        # Odd-leaf case: flip the qubit shared with each set leaf.
        pair_contrib = (active[..., None] & leaf_set).reshape(batch_shape + (num * 4,))
        counts = pair_contrib.astype(np.int64) @ self._leaf_correction_table
        # Boundary case: active clique with no set leaf flips a boundary qubit.
        lone = active & ~leaf_set.any(axis=-1)
        counts += lone.astype(np.int64) @ self._boundary_correction_table
        return (counts > 0).astype(np.uint8)

    # ------------------------------------------------------------------
    # Packed (uint64 bitplane) decision helpers — trial ``t`` of every plane
    # lives at bit ``t % 64`` of word ``t // 64`` (repro.bitplane layout).
    # ------------------------------------------------------------------
    def _packed_tables(self) -> _PackedCliqueTables:
        tables = self._packed_tables_cache
        if tables is None:
            boundary_mask = np.where(
                self._has_boundary, ~np.uint64(0), np.uint64(0)
            )[:, None]
            leaf_rows, leaf_qubits = np.nonzero(self._leaf_correction_table)
            lone_cliques, lone_qubits = np.nonzero(self._boundary_correction_table)
            targets = np.concatenate([leaf_qubits, lone_qubits])
            order = np.argsort(targets, kind="stable")
            sorted_targets = targets[order]
            if sorted_targets.size:
                segment_starts = np.flatnonzero(
                    np.r_[True, sorted_targets[1:] != sorted_targets[:-1]]
                )
            else:  # pragma: no cover - no real code is contribution-free
                segment_starts = np.zeros(0, dtype=np.int64)
            tables = _PackedCliqueTables(
                boundary_mask=boundary_mask,
                leaf_rows=leaf_rows,
                lone_cliques=lone_cliques,
                order=order,
                segment_starts=segment_starts,
                target_qubits=sorted_targets[segment_starts],
            )
            self._packed_tables_cache = tables
        return tables

    def _packed_leaves(self, signatures: np.ndarray) -> np.ndarray:
        """Gather each clique's leaf planes: ``(ancillas, words)`` → ``(cliques, 4, words)``."""
        words = signatures.shape[-1]
        padded = np.concatenate(
            [signatures, np.zeros((1, words), dtype=np.uint64)], axis=0
        )
        return padded[self._neighbor_table]

    def complex_any_packed(self, signatures: np.ndarray) -> np.ndarray:
        """Per-trial "some clique is complex" word vector for packed signatures.

        Args:
            signatures: uint64 planes of shape ``(num_ancillas, words)``.

        Returns:
            ``(words,)`` uint64: bit ``t`` is set iff trial ``t``'s signature
            has at least one complex clique — the packed negation of
            :meth:`is_trivial_batch`.  Padding trials (all-zero planes) come
            back 0, i.e. trivial.
        """
        tables = self._packed_tables()
        leaves = self._packed_leaves(signatures)
        parity = np.bitwise_xor.reduce(leaves, axis=1)
        any_leaf = np.bitwise_or.reduce(leaves, axis=1)
        # active & even-leaf-count & not the lone-boundary escape: even count
        # is XOR-parity 0, zero count is OR 0 (cf. clique_rule / complex_mask).
        complex_planes = signatures & ~parity & ~(~any_leaf & tables.boundary_mask)
        return np.bitwise_or.reduce(complex_planes, axis=0)

    def correction_planes_packed(self, signatures: np.ndarray) -> np.ndarray:
        """Packed correction assembly for trivial packed signatures.

        Args:
            signatures: uint64 planes ``(num_ancillas, words)``; every trial
                whose bits are set must already be trivial per
                :meth:`complex_any_packed` (complex trials produce garbage,
                never an error) — callers mask with the trivial word vector.

        Returns:
            uint64 correction planes of shape ``(num_data_qubits, words)``,
            bit-identical to packing :meth:`correction_bitmap`'s rows:
            same-qubit contributions collapse by OR (set-union semantics).
        """
        tables = self._packed_tables()
        leaves = self._packed_leaves(signatures)
        leaves_flat = leaves.reshape(-1, leaves.shape[-1])
        any_leaf = np.bitwise_or.reduce(leaves, axis=1)
        # Odd-leaf case: active clique XOR set leaf → flip the shared qubit.
        leaf_contrib = (
            signatures[tables.leaf_rows // 4] & leaves_flat[tables.leaf_rows]
        )
        # Boundary case: active clique with no set leaf flips a boundary qubit.
        lone_contrib = (
            signatures[tables.lone_cliques] & ~any_leaf[tables.lone_cliques]
        )
        contributions = np.concatenate([leaf_contrib, lone_contrib], axis=0)
        planes = np.zeros(
            (self._code.num_data_qubits, signatures.shape[-1]), dtype=np.uint64
        )
        planes[tables.target_qubits] = np.bitwise_or.reduceat(
            contributions[tables.order], tables.segment_starts, axis=0
        )
        return planes

    # ------------------------------------------------------------------
    def decide(self, signature: np.ndarray) -> CliqueDecision:
        """Run the full decision (including corrections) on a single signature."""
        signature = np.asarray(signature, dtype=np.uint8).reshape(-1) & 1
        active_indices = np.flatnonzero(signature)
        if active_indices.size == 0:
            return CliqueDecision(is_trivial=True)

        complex_flags = self.complex_mask(signature)
        active_coords = tuple(self._cliques[i].ancilla for i in active_indices)
        if complex_flags.any():
            complex_coords = tuple(
                self._cliques[i].ancilla for i in np.flatnonzero(complex_flags)
            )
            return CliqueDecision(
                is_trivial=False,
                active_cliques=active_coords,
                complex_cliques=complex_coords,
            )

        correction: set[Coord] = set()
        for index in active_indices:
            clique = self._cliques[index]
            set_leaves = [
                slot
                for slot, neighbor_index in enumerate(clique.neighbor_indices)
                if signature[neighbor_index]
            ]
            if set_leaves:
                # Odd number of set leaves: fix the data qubit shared with each.
                correction.update(clique.shared_qubits[slot] for slot in set_leaves)
            else:
                # Boundary special case: a single boundary data error explains it;
                # any of the clique's boundary qubits is an equivalent fix.
                correction.add(clique.boundary_qubits[0])
        return CliqueDecision(
            is_trivial=True,
            correction=frozenset(correction),
            active_cliques=active_coords,
        )

    # ------------------------------------------------------------------
    def decode(self, detections: np.ndarray) -> DecodeResult:
        """Decoder-interface wrapper: single-round signatures only.

        Multi-round histories are the responsibility of
        :class:`repro.clique.cascade.DecoderCascade`, which combines this
        decoder with the measurement-persistence filter and the off-chip
        tiers.
        """
        matrix = self._as_detection_matrix(detections)
        if matrix.shape[0] != 1:
            raise ValueError(
                "CliqueDecoder.decode expects a single round; use "
                "DecoderCascade for multi-round histories"
            )
        decision = self.decide(matrix[0])
        return DecodeResult(
            correction=decision.correction,
            handled=decision.is_trivial,
            metadata={
                "active_cliques": len(decision.active_cliques),
                "complex_cliques": len(decision.complex_cliques),
            },
        )


__all__ = ["clique_rule", "CliqueDecision", "CliqueDecoder"]
