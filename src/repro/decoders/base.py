"""Decoder interface shared by on-chip and off-chip decoders."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro import bitplane
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import SyndromeShapeError
from repro.types import Coord, StabilizerType


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode call.

    Attributes:
        correction: data qubits whose error species should be flipped.  The
            set has XOR semantics: applying it twice is a no-op.
        handled: whether the decoder actually produced a correction.  The
            Clique decoder sets ``handled=False`` when it declares a syndrome
            complex and defers to the off-chip decoder.
        metadata: free-form diagnostic information (e.g. number of matched
            pairs, growth steps), useful for benchmarking.
    """

    correction: frozenset[Coord] = frozenset()
    handled: bool = True
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PackedBatchDecodeResult:
    """Outcome of decoding a batch given as uint64 trial bitplanes.

    Corrections come back as bitplanes so the packed Monte-Carlo engine XORs
    them straight into packed accumulated-error planes.  Per-trial
    statistics stay unpacked (they are ``O(trials)`` integers, not part of
    the memory-bound hot path) and cover only the ``trials`` real trials,
    never the ragged-tail padding.

    Attributes:
        corrections: uint64 planes of shape ``(num_data_qubits, words)`` in
            ``code.data_index`` plane order; trial ``t``'s correction bit for
            a qubit lives at bit ``t % 64`` of word ``t // 64``.
        trials: number of real trials (``words == ceil(trials / 64)``).
        onchip_rounds: per-trial count of rounds resolved on-chip,
            shape ``(trials,)``.
        total_rounds: per-trial count of rounds with location tracking,
            shape ``(trials,)``.
        tier_trials: for cascade decoders, the int64 pair ``(on-chip
            trials, off-chip trials)``: trials decoded entirely by the
            on-chip Clique tier, and trials that shipped at least one round
            to the off-chip tier (the entries sum to the trial count).
            ``None`` for decoders without tier structure.
        tier_rounds: for cascade decoders, the int64 pair ``(on-chip rounds,
            off-chip rounds)``: the total count of rounds resolved on-chip,
            and of rounds shipped off-chip — the off-chip bandwidth in
            rounds.  ``None`` for decoders without tier structure.
    """

    corrections: np.ndarray
    trials: int
    onchip_rounds: np.ndarray
    total_rounds: np.ndarray
    tier_trials: np.ndarray | None = None
    tier_rounds: np.ndarray | None = None

    @property
    def num_trials(self) -> int:
        return self.trials


class Decoder(abc.ABC):
    """A decoder for one stabilizer type of one surface code instance.

    Decoders consume *detection events* in matrix form — shape
    ``(num_rounds, num_ancillas_of_type)`` — and return a
    :class:`DecodeResult` whose correction is expressed on data qubits.  A
    one-dimensional syndrome is accepted as shorthand for a single round.

    Off-chip cascade tier contract: a
    :class:`~repro.clique.cascade.DecoderCascade` hands its off-chip tier
    every off-chip window of a batch in one
    :meth:`decode_event_windows` call.  The default implementation decodes
    the windows one by one through the per-window hook
    ``decode_events_bitmap(rounds, ancillas) -> uint8 bitmap`` when the
    decoder has one, and through :meth:`decode` on the window's detection
    mask otherwise (slower, but exact); a decoder that
    can solve many windows together (:class:`~repro.decoders.mwpm.MWPMDecoder`)
    overrides it.  Events always arrive in row-major ``(round, ancilla)``
    order within a window (the order ``np.nonzero`` produces, which fixes
    equal-weight tie-breaks).
    """

    def __init__(self, code: RotatedSurfaceCode, stype: StabilizerType) -> None:
        self._code = code
        self._stype = stype

    @property
    def code(self) -> RotatedSurfaceCode:
        return self._code

    @property
    def stabilizer_type(self) -> StabilizerType:
        return self._stype

    @property
    def name(self) -> str:
        """Short identifier used in experiment reports."""
        return type(self).__name__

    def _as_detection_matrix(self, detections: np.ndarray) -> np.ndarray:
        """Normalise input to a 2-D uint8 matrix and validate its width."""
        matrix = np.atleast_2d(np.asarray(detections, dtype=np.uint8)) & 1
        expected = self._code.num_ancillas_of_type(self._stype)
        if matrix.shape[1] != expected:
            raise SyndromeShapeError(expected, matrix.shape[1])
        return matrix

    @abc.abstractmethod
    def decode(self, detections: np.ndarray) -> DecodeResult:
        """Decode a detection-event matrix into a data-qubit correction."""

    def decode_event_windows(
        self, rounds: np.ndarray, ancillas: np.ndarray, bounds: np.ndarray
    ) -> np.ndarray:
        """Decode a batch of event windows into per-window correction bitmaps.

        Args:
            rounds, ancillas: flat event arrays; window ``i`` is the slice
                ``bounds[i]:bounds[i + 1]``, in row-major ``(round,
                ancilla)`` order (see :func:`repro.bitplane.event_windows`).
            bounds: ``(windows + 1,)`` non-decreasing offsets into the event
                arrays (an empty window decodes to an empty correction).

        Returns:
            uint8 ``(windows, num_data_qubits)`` bitmaps in
            ``code.data_index`` column order.

        This base implementation decodes window by window, through
        ``decode_events_bitmap`` when the decoder has that hook, else
        through :meth:`decode` on a detection mask that ends at the
        window's last event round.
        """
        decode_events = getattr(self, "decode_events_bitmap", None)
        num_windows = len(bounds) - 1
        corrections = np.zeros(
            (num_windows, self._code.num_data_qubits), dtype=np.uint8
        )
        data_index = self._code.data_index
        width = self._code.num_ancillas_of_type(self._stype)
        for index in range(num_windows):
            window_rounds = rounds[bounds[index] : bounds[index + 1]]
            window_ancillas = ancillas[bounds[index] : bounds[index + 1]]
            if decode_events is not None:
                corrections[index] = decode_events(window_rounds, window_ancillas)
                continue
            mask = np.zeros(
                (int(np.max(window_rounds, initial=0)) + 1, width), dtype=np.uint8
            )
            mask[window_rounds, window_ancillas] = 1
            for qubit in self.decode(mask).correction:
                corrections[index, data_index[qubit]] ^= 1
        return corrections

    def _as_packed_detection_batch(
        self, detections: np.ndarray, trials: int
    ) -> np.ndarray:
        """Validate a packed ``(rounds, ancillas, words)`` uint64 tensor."""
        planes = np.asarray(detections)
        if planes.ndim != 3 or planes.dtype != np.uint64:
            raise ValueError(
                "expected a (rounds, ancillas, words) uint64 tensor, got "
                f"{planes.dtype} with {planes.ndim} dimension(s)"
            )
        expected = self._code.num_ancillas_of_type(self._stype)
        if planes.shape[1] != expected:
            raise SyndromeShapeError(expected, planes.shape[1])
        if planes.shape[2] != bitplane.num_words(trials):
            raise ValueError(
                f"expected {bitplane.num_words(trials)} packed words for "
                f"{trials} trials, got {planes.shape[2]}"
            )
        return planes

    def decode_batch_packed(
        self, detections: np.ndarray, trials: int
    ) -> PackedBatchDecodeResult:
        """Decode a batch given as packed trial bitplanes.

        Args:
            detections: uint64 tensor of shape ``(rounds, num_ancillas,
                words)`` in the trials-major layout of
                :mod:`repro.bitplane` (padding bits of the ragged last word
                must be zero).
            trials: the number of real trials packed into the planes.

        The base implementation unpacks, runs :meth:`decode` trial by trial,
        and re-packs the corrections — semantics, including RNG-free
        tie-breaks, are therefore exactly per-trial :meth:`decode`'s.  It
        serves decoders without a native packed path (custom decoders, such
        as a ready off-chip tier); per-trial round counts come from the
        ``num_rounds``/``num_offchip_rounds`` metadata when a decoder
        reports them, else stay zero.  Decoders with a native packed path
        (:class:`repro.clique.cascade.DecoderCascade`,
        :class:`repro.decoders.mwpm.MWPMDecoder`) override it and must stay
        bit-identical to per-trial decoding; the batch Monte-Carlo engine's
        equivalence with the loop engine depends on it.
        """
        planes = self._as_packed_detection_batch(detections, trials)
        batch = bitplane.unpack_trials(planes, trials)
        corrections = np.zeros((trials, self._code.num_data_qubits), dtype=np.uint8)
        onchip_rounds = np.zeros(trials, dtype=np.int64)
        total_rounds = np.zeros(trials, dtype=np.int64)
        data_index = self._code.data_index
        for trial in range(trials):
            result = self.decode(batch[trial])
            for qubit in result.correction:
                corrections[trial, data_index[qubit]] ^= 1
            metadata = result.metadata
            if "num_offchip_rounds" in metadata and "num_rounds" in metadata:
                onchip_rounds[trial] = (
                    metadata["num_rounds"] - metadata["num_offchip_rounds"]
                )
                total_rounds[trial] = metadata["num_rounds"]
        return PackedBatchDecodeResult(
            corrections=bitplane.pack_trials(corrections),
            trials=trials,
            onchip_rounds=onchip_rounds,
            total_rounds=total_rounds,
        )


__all__ = ["Decoder", "DecodeResult", "PackedBatchDecodeResult"]
