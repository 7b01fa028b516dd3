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
    word_bits = np.unpackbits(
        planes[rounds, ancillas, words].view(np.uint8).reshape(-1, _WORD_BYTES),
        axis=1,
        bitorder="little",
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
    for ``(rounds, num_data, words)`` accumulated-error planes cost one gather
    plus an XOR-reduce — no matmul, no widening past uint64.
    """

    def __init__(self, parity_check: np.ndarray) -> None:
        matrix = np.asarray(parity_check)
        if matrix.ndim != 2:
            raise ValueError("parity_check must be a 2-D (ancillas, data) matrix")
        num_ancillas, num_data = matrix.shape
        rows, columns = np.nonzero(matrix & 1)  # row-major: supports in order
        weights = np.bincount(rows, minlength=num_ancillas)
        width = int(weights.max(initial=0)) or 1
        slots = np.arange(rows.size) - np.repeat(np.cumsum(weights) - weights, weights)
        # Rows padded with the sentinel index ``num_data``, which addresses an
        # always-zero plane appended at syndrome time (XOR identity).
        self._support = np.full((num_ancillas, width), num_data, dtype=np.int64)
        self._support[rows, slots] = columns
        # Instances are shared per process (get_packed_parity_check).
        self._support.flags.writeable = False
        self._num_data = num_data

    @property
    def num_ancillas(self) -> int:
        return self._support.shape[0]

    def syndromes(self, accumulated: np.ndarray) -> np.ndarray:
        """Packed syndromes for packed accumulated-error planes.

        Args:
            accumulated: ``(rounds, num_data, words)`` uint64 planes.

        Returns:
            ``(rounds, num_ancillas, words)`` uint64 planes, bit-for-bit equal
            to packing ``accumulated_bits @ H.T % 2``.
        """
        rounds, num_data, words = accumulated.shape
        if num_data != self._num_data:
            raise ValueError(
                f"expected {self._num_data} data-qubit planes, got {num_data}"
            )
        padded = np.concatenate(
            [accumulated, np.zeros((rounds, 1, words), dtype=np.uint64)], axis=1
        )
        gathered = padded[:, self._support]  # (rounds, ancillas, width, words)
        return np.bitwise_xor.reduce(gathered, axis=2)


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
    "event_windows",
    "get_packed_parity_check",
    "num_words",
    "pack_trials",
    "popcount",
    "scatter_xor_trial_bits",
    "trial_mask_words",
    "unpack_trials",
]
