"""uint64 bitplane packing for the Monte-Carlo hot path.

The batched engines of :mod:`repro.simulation` are memory-bound at paper
scale: ``(trials, rounds, qubits)`` uint8 history tensors plus an int64
syndrome matmul collapse arithmetic intensity until DRAM bandwidth sets the
throughput.  This module provides the packed representation that shrinks the
working set 8x and turns GF(2) linear algebra into XOR/popcount over machine
words:

* **Layout** — *trials-major bitplanes*: a ``(trials, *rest)`` 0/1 tensor
  packs to ``(*rest, words)`` uint64, where bit ``t % 64`` of word
  ``t // 64`` in plane ``rest`` is trial ``t``'s bit.  One word therefore
  holds 64 trials of the same (round, qubit) plane, so per-plane operations
  (XOR-accumulate along rounds, parity over stabilizer supports, triage
  masks) touch 64 trials per instruction.
* **Ragged tail rule** — when ``trials`` is not a multiple of 64 the last
  word is zero-padded: padding bits are 0 after :func:`pack_trials` and every
  kernel either preserves that invariant or masks with
  :func:`trial_mask_words` before counting.
* **Bit order** — planes are packed with ``bitorder="little"`` and all
  *indexed* single-trial access goes through the uint8 byte view (byte
  ``t // 8``, bit ``t % 8``), which is endian-independent; word-level
  XOR/AND/OR/popcount never care about bit order at all.

Everything here is pure numpy, plus one per-process cache of each code's
packed parity check (:func:`get_packed_parity_check`); exactness (pack →
unpack is the identity, packed kernels are bit-identical to their uint8
counterparts) is pinned by ``tests/simulation/test_bitplane.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.codes.rotated_surface import get_code
from repro.types import StabilizerType

#: Bits per packed word.
WORD_BITS = 64
_WORD_BYTES = 8


def num_words(trials: int) -> int:
    """Packed words needed along the trial axis for ``trials`` trials."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    return -(-trials // WORD_BITS)


def trial_mask_words(trials: int) -> np.ndarray:
    """uint64 vector of ``num_words(trials)`` words with the first ``trials`` bits set.

    AND-ing with this mask zeroes the ragged tail of the last word, which is
    how popcount-based reductions exclude padding trials.
    """
    packed = np.packbits(np.ones(trials, dtype=np.uint8), bitorder="little")
    return _bytes_to_words(packed)


def _bytes_to_words(packed_bytes: np.ndarray) -> np.ndarray:
    """Pad a little-order byte tensor to 8-byte multiples and view as uint64."""
    tail = (-packed_bytes.shape[-1]) % _WORD_BYTES
    if tail:
        pad = [(0, 0)] * (packed_bytes.ndim - 1) + [(0, tail)]
        packed_bytes = np.pad(packed_bytes, pad)
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def pack_trials(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(trials, *rest)`` 0/1 tensor into ``(*rest, words)`` uint64 planes.

    The ragged last word is zero-padded (see the module docstring).  Accepts
    bool or any integer dtype with 0/1 values.
    """
    arr = np.asarray(bits)
    if arr.ndim == 0:
        raise ValueError("pack_trials needs at least a 1-D (trials,) input")
    moved = np.moveaxis(arr, 0, -1)  # (*rest, trials)
    packed = np.packbits(
        np.ascontiguousarray(moved, dtype=np.uint8), axis=-1, bitorder="little"
    )
    return _bytes_to_words(packed)


def unpack_trials(packed: np.ndarray, trials: int) -> np.ndarray:
    """Inverse of :func:`pack_trials`: ``(*rest, words)`` uint64 → ``(trials, *rest)`` uint8.

    Exact round trip for any ``trials`` up to ``words * 64`` (padding bits
    are discarded, whatever their value).
    """
    arr = np.ascontiguousarray(np.asarray(packed, dtype=np.uint64))
    as_bytes = arr.view(np.uint8)  # (*rest, words * 8), little order
    bits = np.unpackbits(as_bytes, axis=-1, count=trials, bitorder="little")
    return np.moveaxis(bits, -1, 0)


if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across a uint64 array."""
        return int(np.bitwise_count(np.asarray(words, dtype=np.uint64)).sum())

else:  # pragma: no cover - numpy < 2.1 fallback
    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across a uint64 array (byte-table fallback)."""
        arr = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
        return int(_POPCOUNT_TABLE[arr.view(np.uint8)].sum(dtype=np.int64))


def scatter_xor_trial_bits(
    packed: np.ndarray, trial_ids: np.ndarray, bits: np.ndarray
) -> None:
    """XOR per-trial bit rows back into packed planes, in place.

    Args:
        packed: C-contiguous ``(*rest, words)`` uint64 planes, modified in place.
        trial_ids: ``(k,)`` trial indices (duplicates allowed — XOR
            accumulates through ``np.bitwise_xor.at``).
        bits: ``(k, *rest)`` 0/1 values to XOR into each trial's bits.
    """
    trial_ids = np.asarray(trial_ids, dtype=np.int64)
    if packed.dtype != np.uint64 or not packed.flags.c_contiguous:
        raise ValueError("scatter target must be a C-contiguous uint64 array")
    as_bytes = packed.view(np.uint8)  # (*rest, words * 8)
    shift = (trial_ids % 8).astype(np.uint8)
    bits = np.asarray(bits, dtype=np.uint8) & np.uint8(1)
    # (k, *rest): each trial's contribution shifted to its bit-in-byte slot.
    values = bits << shift.reshape((-1,) + (1,) * (bits.ndim - 1))
    np.bitwise_xor.at(np.moveaxis(as_bytes, -1, 0), trial_ids // 8, values)


def event_windows(
    planes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read the set bits of packed ``(rounds, ancillas, words)`` planes as event windows.

    Returns ``(trials, rounds, ancillas, bounds)``: the trials with at least
    one set bit, in increasing order, and their ``(round, ancilla)`` events
    as flat arrays, where window ``i`` (trial ``trials[i]``) is the slice
    ``bounds[i]:bounds[i + 1]``.  Events are trial-major, then row-major
    ``(round, ancilla)`` — the order ``np.nonzero`` gives on one trial's
    unpacked matrix.  Only the nonzero words are unpacked, through the
    endian-independent byte view, so the cost scales with the events, not
    with ``trials x rounds x ancillas``.
    """
    rounds, ancillas, words = np.nonzero(planes)
    return _word_event_windows(planes[rounds, ancillas, words], rounds, ancillas, words)


def column_event_windows(
    columns: np.ndarray, rounds: np.ndarray, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`event_windows` of planes known only on a few ``(round, word)`` columns.

    ``columns`` is ``(k, ancillas)`` uint64: column ``i`` holds every
    ancilla's word ``words[i]`` of round ``rounds[i]``, and the planes are
    zero everywhere else.  The result is what :func:`event_windows` returns
    on the full planes, read from the given columns only.
    """
    column, ancillas = np.nonzero(columns)
    return _word_event_windows(
        columns[column, ancillas], rounds[column], ancillas, words[column]
    )


def _word_event_windows(values, rounds, ancillas, words):
    """Event windows of nonzero plane words ``values`` at ``(round, ancilla, word)``."""
    word_bits = np.unpackbits(
        values.view(np.uint8).reshape(-1, _WORD_BYTES), axis=1, bitorder="little"
    )
    event, bit = np.nonzero(word_bits)
    trials = words[event] * WORD_BITS + bit
    rounds, ancillas = rounds[event], ancillas[event]
    order = np.lexsort((ancillas, rounds, trials))
    trials, rounds, ancillas = trials[order], rounds[order], ancillas[order]
    starts = np.flatnonzero(np.diff(trials, prepend=-1))
    return trials[starts], rounds, ancillas, np.append(starts, trials.size)


class PackedParityCheck:
    """XOR-parity syndrome extraction over packed bitplanes.

    Precomputes each stabilizer's data-qubit support once so that syndromes
    for ``(rounds, num_data, words)`` error planes cost one gather and one
    XOR per support slot — no matmul, no widening past uint64, and no padded
    copy of the input.  Rows shorter than their group's width repeat one of
    their columns an even number of times (``x ^ x = 0``); rows are grouped
    by weight parity so that every row's padding is even (a surface code's
    weight-2 and weight-4 stabilizers form one group).
    """

    def __init__(self, parity_check: np.ndarray) -> None:
        matrix = np.asarray(parity_check)
        if matrix.ndim != 2:
            raise ValueError("parity_check must be a 2-D (ancillas, data) matrix")
        num_ancillas, num_data = matrix.shape
        rows, columns = np.nonzero(matrix & 1)  # row-major: supports in order
        weights = np.bincount(rows, minlength=num_ancillas)
        starts = np.cumsum(weights) - weights
        entry_slots = np.arange(rows.size) - starts[rows]
        first_column = np.zeros(num_ancillas, dtype=np.int64)
        first_column[weights > 0] = columns[starts[weights > 0]]
        # ``(rows, slots)`` per weight parity: ``rows`` is None when the
        # group is every row in order, and ``slots`` holds one contiguous
        # ancilla -> data-qubit column vector per support slot.
        self._groups: list[tuple[np.ndarray | None, tuple[np.ndarray, ...]]] = []
        for parity in (0, 1):
            members = np.flatnonzero(weights % 2 == parity)
            width = int(weights[members].max(initial=0))
            if not width:
                continue  # no rows, or only all-zero rows: syndrome 0
            # Slot j of a row reads its j-th support column; the slots past
            # its weight (an even number of them) all read its first column,
            # or column 0 for an all-zero row.
            support = np.repeat(first_column[members, None], width, axis=1)
            entries = np.flatnonzero(weights[rows] % 2 == parity)
            support[np.searchsorted(members, rows[entries]), entry_slots[entries]] = (
                columns[entries]
            )
            slots = tuple(np.ascontiguousarray(column) for column in support.T)
            # Instances are shared per process (get_packed_parity_check).
            for table in (members, *slots):
                table.flags.writeable = False
            self._groups.append(
                (None if members.size == num_ancillas else members, slots)
            )
        self._num_ancillas = num_ancillas
        self._num_data = num_data

    @property
    def num_ancillas(self) -> int:
        return self._num_ancillas

    def syndromes(self, planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Packed syndromes ``H · planes`` of packed error planes.

        Args:
            planes: ``(rounds, num_data, words)`` uint64 planes — accumulated
                errors for the syndromes themselves, or one round's fresh
                errors each for their per-round change (the map is linear).
            out: optional C-contiguous ``(rounds, num_ancillas, words)``
                uint64 array to write the syndromes into.

        Returns:
            ``(rounds, num_ancillas, words)`` uint64 planes, bit-for-bit equal
            to packing ``plane_bits @ H.T % 2``.
        """
        rounds, num_data, words = planes.shape
        if num_data != self._num_data:
            raise ValueError(
                f"expected {self._num_data} data-qubit planes, got {num_data}"
            )
        shape = (rounds, self._num_ancillas, words)
        if out is None:
            out = np.empty(shape, dtype=np.uint64)
        if len(self._groups) != 1 or self._groups[0][0] is not None:
            out[...] = 0  # some rows are written per group, or not at all
        for members, slots in self._groups:
            target = out if members is None else np.empty(
                (rounds, members.size, words), dtype=np.uint64
            )
            scratch = np.empty_like(target)
            # ``mode="clip"`` (the columns are in range anyway) lets ``take``
            # write straight into ``out``; the default mode buffers it.
            np.take(planes, slots[0], axis=1, out=target, mode="clip")
            for columns in slots[1:]:
                np.take(planes, columns, axis=1, out=scratch, mode="clip")
                np.bitwise_xor(target, scratch, out=target)
            if members is not None:
                out[:, members] = target
        return out


@lru_cache(maxsize=64)
def get_packed_parity_check(distance: int, stype: StabilizerType) -> PackedParityCheck:
    """Cached :class:`PackedParityCheck` of a code distance's ``stype`` stabilizers.

    One read-only instance per process serves every shard and chunk of that
    code, like :func:`repro.codes.rotated_surface.get_code` itself.
    """
    return PackedParityCheck(get_code(distance).parity_check(stype))


__all__ = [
    "WORD_BITS",
    "PackedParityCheck",
    "column_event_windows",
    "event_windows",
    "get_packed_parity_check",
    "num_words",
    "pack_trials",
    "popcount",
    "scatter_xor_trial_bits",
    "trial_mask_words",
    "unpack_trials",
]
