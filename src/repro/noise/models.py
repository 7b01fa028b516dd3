"""Noise models used for benchmarking the decoders.

The paper's evaluation (Section 6.1) uses the *phenomenological* model: each
cycle injects independent errors on every data qubit with probability ``p``
and flips every syndrome measurement with the same probability ``p``.  A
*code-capacity* variant (no measurement errors) is provided for unit tests
and for the lookup-table decoder the tests use as an oracle.

Memory-experiment histories are drawn by an exact *sparse* sampler, one
2048-trial block at a time: per field, the positions of the set entries of
the block's ``M`` Bernoulli(``p``) entries are walked with geometric gaps
(:func:`sample_positions`).  The draws and the memory follow the number of
errors, not ``M``.  See :meth:`NoiseModel.sample_error_blocks`.
"""

from __future__ import annotations

import abc
import math
import numbers
from typing import Iterator

import numpy as np

from repro import bitplane
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import InvalidProbabilityError
from repro.types import StabilizerType

#: Trials per block of the sparse history sampler
#: (:meth:`NoiseModel.sample_error_blocks`): 32 packed uint64 words of
#: trials.  A block's errors land in its own word columns of the bitplanes,
#: so any chunking of a run into whole blocks draws the same blocks.
PACKED_SAMPLE_BLOCK = 2048

_NO_POSITIONS = np.empty(0, dtype=np.int64)
_MAX_POSITION = np.iinfo(np.int64).max


def _validate_probability(name: str, value: float) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or not 0.0 <= float(value) <= 1.0
    ):
        raise InvalidProbabilityError(name, value)
    return float(value)


def sample_positions(size: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted int64 positions of the set entries of ``size`` i.i.d. Bernoulli(``p``) bits.

    The gaps between consecutive set entries of a Bernoulli field are i.i.d.
    ``Geometric(p)``, so the positions are the cumulative sums of
    ``rng.geometric(p, n)`` gaps, minus one, cut at ``size``: exactly
    distributed as ``flatnonzero(rng.random(size) < p)``, in memory that
    follows the number of set entries.  ``n`` covers the mean count plus
    four standard deviations; when the gaps fall short of the field's end,
    more are drawn.  A gap past the field's end is clipped to it before the
    sum (numpy returns ``2**63 - 1`` gaps at vanishing ``p``), and at most as
    many gaps are summed at once as cannot overflow int64.  ``p == 0`` and
    ``p == 1`` draw nothing (no entry set, every entry set), nor does an
    empty field.
    """
    if p == 0.0 or size == 0:
        return _NO_POSITIONS
    if p == 1.0:
        return np.arange(size, dtype=np.int64)
    parts = []
    last = -1  # the last position drawn so far
    while True:
        room = size - last  # a gap of ``room`` lands just past the field
        mean = room * p
        count = int(mean + 4.0 * math.sqrt(mean * (1.0 - p))) + 16
        count = min(count, (_MAX_POSITION - last) // room)
        positions = rng.geometric(p, count)
        np.minimum(positions, room, out=positions)
        np.cumsum(positions, out=positions)
        positions += last
        inside = int(np.searchsorted(positions, size))
        parts.append(positions[:inside])
        if inside < count:
            break
        last = int(positions[-1])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def uses_block_sampler(noise: "NoiseModel") -> bool:
    """Whether ``noise`` draws memory histories through the sparse block sampler.

    False when a subclass overrides :meth:`NoiseModel.sample_data_vector`,
    :meth:`NoiseModel.sample_measurement_vector` or
    :meth:`NoiseModel.sample_history`: custom physics then keeps the dense
    per-vector draws in both memory engines.
    """
    cls = type(noise)
    return (
        cls.sample_data_vector is NoiseModel.sample_data_vector
        and cls.sample_measurement_vector is NoiseModel.sample_measurement_vector
        and cls.sample_history is NoiseModel.sample_history
    )


def _set_block_bits(
    planes: np.ndarray, block: int, first_word: int, positions: np.ndarray
) -> None:
    """OR one block's ``(round, qubit, trial)`` positions into the bitplanes.

    The block of ``block`` trials starts at word ``first_word``: its position
    ``plane * block + trial`` (``plane`` flattening ``(round, qubit)``)
    becomes bit ``trial % 64`` of word ``first_word + trial // 64`` of
    ``planes[plane]``, written through the little-order byte view like every
    indexed bitplane access, in one unbuffered ``bitwise_or.at``.
    """
    if not positions.size:
        return
    plane, trial = np.divmod(positions, block)
    bit = (plane * planes.shape[-1] + first_word) * bitplane.WORD_BITS + trial
    np.bitwise_or.at(
        planes.reshape(-1).view(np.uint8),
        bit >> 3,
        np.left_shift(1, bit & 7).astype(np.uint8),
    )


class NoiseModel(abc.ABC):
    """Interface for per-cycle error sampling against a surface code."""

    @property
    @abc.abstractmethod
    def data_error_rate(self) -> float:
        """Per-cycle, per-data-qubit error probability."""

    @property
    @abc.abstractmethod
    def measurement_error_rate(self) -> float:
        """Per-cycle, per-ancilla measurement flip probability."""

    def sample_data_vector(
        self,
        code: RotatedSurfaceCode,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binary vector of new data errors for one cycle (``code.data_qubits`` order)."""
        return (
            rng.random(code.num_data_qubits) < self.data_error_rate
        ).astype(np.uint8)

    def sample_measurement_vector(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binary vector of measurement flips for the ancillas of one type."""
        return (
            rng.random(code.num_ancillas_of_type(stype)) < self.measurement_error_rate
        ).astype(np.uint8)

    # ------------------------------------------------------------------
    # Batched sampling (the Monte-Carlo engines' hot path)
    # ------------------------------------------------------------------
    def sample_data_matrix(
        self,
        code: RotatedSurfaceCode,
        num_samples: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Binary matrix of fresh data errors, shape ``(num_samples, num_data_qubits)``.

        Row ``i`` is distributed identically to :meth:`sample_data_vector`;
        the whole matrix costs a single RNG call.
        """
        return (
            rng.random((num_samples, code.num_data_qubits)) < self.data_error_rate
        ).astype(np.uint8)

    def sample_error_blocks(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        trials: int,
        rounds: int,
        rng: np.random.Generator,
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(block_trials, data_positions, flip_positions)`` per 2048-trial block.

        The memory engines' one history stream.  Trials are taken
        :data:`PACKED_SAMPLE_BLOCK` at a time (the last block may be
        ragged); per block the data field is drawn, then the flip field, each
        by :func:`sample_positions` over ``block_trials * rounds * qubits``
        entries.  A position indexes the block's C-order
        ``(rounds, qubits, block_trials)`` array, so the trial is its fastest
        axis.  Any chunking of a run into whole blocks draws the same
        blocks, hence the same errors.
        """
        data_size = rounds * code.num_data_qubits
        flip_size = rounds * code.num_ancillas_of_type(stype)
        for start in range(0, trials, PACKED_SAMPLE_BLOCK):
            block = min(PACKED_SAMPLE_BLOCK, trials - start)
            data = sample_positions(block * data_size, self.data_error_rate, rng)
            flips = sample_positions(
                block * flip_size, self.measurement_error_rate, rng
            )
            yield block, data, flips

    def sample_history(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        trials: int,
        rounds: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample full error histories for a batch of memory-experiment trials.

        Returns ``(data_errors, measurement_flips)`` with shapes
        ``(trials, rounds, num_data_qubits)`` and
        ``(trials, rounds, num_ancillas)``: exactly
        ``bitplane.unpack_trials`` of :meth:`sample_history_packed` from the
        same generator state, so the unpacked, packed and loop-engine draws
        are one stream.

        A subclass that overrides :meth:`sample_data_vector` or
        :meth:`sample_measurement_vector` (correlated noise, biased channels,
        ...) is honoured instead: its vectors are drawn round by round,
        trial by trial, with the data vector before the flip vector.
        """
        if (
            type(self).sample_data_vector is not NoiseModel.sample_data_vector
            or type(self).sample_measurement_vector
            is not NoiseModel.sample_measurement_vector
        ):
            num_data = code.num_data_qubits
            num_ancillas = code.num_ancillas_of_type(stype)
            data_errors = np.empty((trials, rounds, num_data), dtype=np.uint8)
            measurement_flips = np.empty(
                (trials, rounds, num_ancillas), dtype=np.uint8
            )
            for trial in range(trials):
                for round_index in range(rounds):
                    data_errors[trial, round_index] = self.sample_data_vector(
                        code, rng
                    )
                    measurement_flips[trial, round_index] = (
                        self.sample_measurement_vector(code, stype, rng)
                    )
            return data_errors, measurement_flips
        data_planes, flip_planes = self._sample_blocks_packed(
            code, stype, trials, rounds, rng
        )
        return (
            bitplane.unpack_trials(data_planes, trials),
            bitplane.unpack_trials(flip_planes, trials),
        )

    def sample_history_packed(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        trials: int,
        rounds: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample error histories directly into uint64 bitplanes.

        Returns ``(data_planes, flip_planes)`` with shapes
        ``(rounds, num_data_qubits, words)`` and ``(rounds, num_ancillas,
        words)`` where ``words = ceil(trials / 64)``.  Block ``b`` of
        :meth:`sample_error_blocks` fills the 32 word columns from
        ``32 * b``: a position ``(round, qubit, trial)`` sets bit
        ``trial % 64`` of ``planes[round, qubit, 32 * b + trial // 64]``.
        Bits of the ragged last word past ``trials`` stay zero.  Nothing is
        drawn per entry: the draws cost a fixed amount per block plus a
        little per error.

        Subclasses that override a sampling hook (see
        :func:`uses_block_sampler`) fall back to :meth:`sample_history` +
        pack, so custom physics keeps its own dense stream.
        """
        if not uses_block_sampler(self):
            data_errors, measurement_flips = self.sample_history(
                code, stype, trials, rounds, rng
            )
            return (
                bitplane.pack_trials(data_errors),
                bitplane.pack_trials(measurement_flips),
            )
        return self._sample_blocks_packed(code, stype, trials, rounds, rng)

    def _sample_blocks_packed(self, code, stype, trials, rounds, rng):
        """The block sampler's bitplanes (no subclass-override dispatch)."""
        words = bitplane.num_words(trials)
        data_planes = np.zeros((rounds, code.num_data_qubits, words), dtype=np.uint64)
        flip_planes = np.zeros(
            (rounds, code.num_ancillas_of_type(stype), words), dtype=np.uint64
        )
        blocks = self.sample_error_blocks(code, stype, trials, rounds, rng)
        for index, (block, data, flips) in enumerate(blocks):
            first_word = index * (PACKED_SAMPLE_BLOCK // bitplane.WORD_BITS)
            _set_block_bits(data_planes, block, first_word, data)
            _set_block_bits(flip_planes, block, first_word, flips)
        return data_planes, flip_planes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(data={self.data_error_rate}, "
            f"measurement={self.measurement_error_rate})"
        )


class PhenomenologicalNoise(NoiseModel):
    """Data and measurement errors, each with (by default the same) probability ``p``.

    Args:
        data_error_rate: per-cycle, per-data-qubit error probability ``p``.
        measurement_error_rate: per-cycle, per-measurement flip probability;
            defaults to ``data_error_rate`` exactly as in the paper.
    """

    def __init__(
        self,
        data_error_rate: float,
        measurement_error_rate: float | None = None,
    ) -> None:
        self._data = _validate_probability("data_error_rate", data_error_rate)
        if measurement_error_rate is None:
            measurement_error_rate = data_error_rate
        self._measurement = _validate_probability(
            "measurement_error_rate", measurement_error_rate
        )

    @property
    def data_error_rate(self) -> float:
        return self._data

    @property
    def measurement_error_rate(self) -> float:
        return self._measurement


class CodeCapacityNoise(NoiseModel):
    """Data errors only; syndrome measurements are perfect.

    Useful for unit tests and for validating decoders against the small-code
    lookup table, where the absence of measurement errors makes exhaustive
    enumeration tractable.
    """

    def __init__(self, data_error_rate: float) -> None:
        self._data = _validate_probability("data_error_rate", data_error_rate)

    @property
    def data_error_rate(self) -> float:
        return self._data

    @property
    def measurement_error_rate(self) -> float:
        return 0.0


__all__ = [
    "PACKED_SAMPLE_BLOCK",
    "NoiseModel",
    "PhenomenologicalNoise",
    "CodeCapacityNoise",
    "sample_positions",
    "uses_block_sampler",
]
