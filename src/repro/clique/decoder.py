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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.clique.cliques import Clique, build_cliques
from repro.codes.rotated_surface import RotatedSurfaceCode, get_code
from repro.decoders.base import Decoder, DecodeResult
from repro.types import Coord, StabilizerType


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
        data_index = code.data_index
        # Transposed neighbour table: row ``slot`` holds every clique's
        # slot-th leaf.  Cliques with fewer than four leaves are padded with
        # index ``num``, which addresses the always-zero sentinel appended to
        # the syndrome before every gather.
        leaves = [[num] * num for _ in range(4)]
        # The correction ROM in pair form, one term per corrected qubit (the
        # invariant is pinned in tests/clique/test_decoder.py):
        # * the data qubit shared by same-type ancillas a < b flips on
        #   ``S[a] & S[b]`` -- both cliques' odd-leaf rules name it, and a
        #   data qubit touches at most two same-type ancillas;
        # * a boundary clique's first boundary qubit flips on
        #   ``S[i] & ~any_leaf[i]`` -- the lone-boundary special case.
        pairs: list[tuple[int, int, int]] = []
        boundary: list[tuple[int, int]] = []
        for clique in self._cliques:
            index = clique.ancilla_index
            for slot, (leaf, shared) in enumerate(
                zip(clique.neighbor_indices, clique.shared_qubits)
            ):
                leaves[slot][index] = leaf
                if index < leaf:
                    pairs.append((index, leaf, data_index[shared]))
            if clique.boundary_qubits:
                boundary.append((index, data_index[clique.boundary_qubits[0]]))
        pair_table = np.array(pairs, dtype=np.int64).reshape(-1, 3).T.copy()
        boundary_table = np.array(boundary, dtype=np.int64).reshape(-1, 2).T.copy()
        self._leaves = np.array(leaves, dtype=np.int64)
        self._pairs = pair_table[:2]
        self._pair_qubits = pair_table[2]
        self._boundary_cliques = boundary_table[0]
        self._boundary_leaves = self._leaves[:, self._boundary_cliques]
        self._boundary_qubits = boundary_table[1]
        self._has_boundary = np.zeros(num, dtype=bool)
        self._has_boundary[self._boundary_cliques] = True
        # Row order of the packed correction terms (triage_round_packed):
        # the pair terms, then the boundary terms.
        self._term_qubits = np.concatenate([self._pair_qubits, self._boundary_qubits])
        # Decoders are shared per process (get_clique_decoder): freeze them.
        for table in (
            self._leaves, self._has_boundary, self._pairs, self._pair_qubits,
            self._boundary_cliques, self._boundary_leaves, self._boundary_qubits,
            self._term_qubits,
        ):
            table.flags.writeable = False

    @property
    def cliques(self) -> tuple[Clique, ...]:
        return self._cliques

    # ------------------------------------------------------------------
    # Vectorised decision helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _padded(signatures: np.ndarray) -> np.ndarray:
        """``(..., num_ancillas)`` 0/1 → the same plus the sentinel 0 column."""
        signatures = np.asarray(signatures, dtype=np.uint8) & 1
        return np.concatenate(
            [signatures, np.zeros(signatures.shape[:-1] + (1,), dtype=np.uint8)],
            axis=-1,
        )

    def complex_mask(self, signatures: np.ndarray) -> np.ndarray:
        """Per-clique complex flags for a batch of signatures.

        Args:
            signatures: array of shape ``(..., num_ancillas)`` with 0/1 entries.

        Returns:
            Boolean array of the same shape: True where the corresponding
            clique is active and judged complex.
        """
        padded = self._padded(signatures)
        neighbor_counts = padded[..., self._leaves].sum(axis=-2)
        active = padded[..., :-1].astype(bool)
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
            :meth:`decide`'s ``correction`` set.  Each corrected qubit has
            one pair-form term, so contributions never need merging.
        """
        padded = self._padded(signatures)
        bitmap = np.zeros(
            padded.shape[:-1] + (self._code.num_data_qubits,), dtype=np.uint8
        )
        first, second = self._pairs
        bitmap[..., self._pair_qubits] = padded[..., first] & padded[..., second]
        any_leaf = padded[..., self._boundary_leaves].any(axis=-2)
        bitmap[..., self._boundary_qubits] = (
            padded[..., self._boundary_cliques] & ~any_leaf
        )
        return bitmap

    # ------------------------------------------------------------------
    # Packed (uint64 bitplane) decision helpers — trial ``t`` of every plane
    # lives at bit ``t % 64`` of word ``t // 64`` (repro.bitplane layout).
    # ------------------------------------------------------------------
    @staticmethod
    def _padded_planes(signatures: np.ndarray) -> np.ndarray:
        """``(num_ancillas, words)`` planes with the sentinel zero plane appended."""
        words = signatures.shape[-1]
        return np.concatenate(
            [signatures, np.zeros((1, words), dtype=np.uint64)], axis=0
        )

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
        return self._complex_word(self._padded_planes(signatures))[0]

    def _complex_word(self, padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(complex word, boundary cliques' any-leaf planes)`` of padded planes.

        ``padded`` is ``(num_ancillas + 1, words)`` with the zero sentinel
        as its last row (read, never written).
        """
        # active & even-leaf-count (XOR-parity 0), and on boundary cliques
        # also some leaf set (the lone-boundary escape needs OR 0).
        complex_planes = np.bitwise_xor.reduce(padded[self._leaves], axis=0)
        np.invert(complex_planes, out=complex_planes)
        complex_planes &= padded[:-1]
        any_leaf = np.bitwise_or.reduce(padded[self._boundary_leaves], axis=0)
        complex_planes[self._boundary_cliques] &= any_leaf
        return np.bitwise_or.reduce(complex_planes, axis=0), any_leaf

    def correction_planes_packed(self, signatures: np.ndarray) -> np.ndarray:
        """Packed correction assembly for trivial packed signatures.

        Args:
            signatures: uint64 planes ``(num_ancillas, words)``; complex
                trials (per :meth:`complex_any_packed`) get no correction.

        Returns:
            uint64 correction planes of shape ``(num_data_qubits, words)``,
            bit-identical to packing :meth:`correction_bitmap`'s rows.
        """
        terms = self.correction_terms_packed(signatures.shape[-1])
        self.triage_round_packed(self._padded_planes(signatures), terms)
        return self.correction_planes_from_terms(terms)

    def correction_terms_packed(self, words: int) -> np.ndarray:
        """A zeroed accumulator for :meth:`triage_round_packed`: one row per
        correction term (each pair-form term, then each boundary term)."""
        return np.zeros((self._term_qubits.size, words), dtype=np.uint64)

    def triage_round_packed(self, padded: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Triage one round of packed signatures and accumulate its corrections.

        Args:
            padded: ``(num_ancillas + 1, words)`` uint64 signature planes
                whose last row is the zero sentinel (read, never written).
            terms: a :meth:`correction_terms_packed` accumulator; the trivial
                trials' correction terms are XOR-ed into it.

        Returns:
            ``(words,)`` uint64: the round's complex word, as
            :meth:`complex_any_packed`.  Complex trials add no terms.
        """
        complex_word, any_leaf = self._complex_word(padded)
        trivial_word = ~complex_word
        first, second = self._pairs
        pair_terms = padded[first]
        pair_terms &= padded[second]
        pair_terms &= trivial_word
        terms[: first.size] ^= pair_terms
        np.invert(any_leaf, out=any_leaf)  # the lone-boundary case: no leaf set
        any_leaf &= padded[self._boundary_cliques]
        any_leaf &= trivial_word
        terms[first.size :] ^= any_leaf
        return complex_word

    def correction_planes_from_terms(self, terms: np.ndarray) -> np.ndarray:
        """``(num_data_qubits, words)`` correction planes of accumulated terms."""
        planes = np.zeros(
            (self._code.num_data_qubits, terms.shape[-1]), dtype=np.uint64
        )
        planes[self._term_qubits] = terms
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
        tier.
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


@lru_cache(maxsize=64)
def get_clique_decoder(distance: int, stype: StabilizerType) -> CliqueDecoder:
    """Cached Clique decoder for a given code distance and stabilizer type.

    The decoder is stateless and its tables are read-only, so one instance
    per process serves every shard, cascade and machine of that code.
    """
    return CliqueDecoder(get_code(distance), stype)


__all__ = ["clique_rule", "CliqueDecision", "CliqueDecoder", "get_clique_decoder"]
