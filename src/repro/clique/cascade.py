"""The paper's two-tier decoder hierarchy (Fig. 2): Clique on-chip, one
robust decoder off-chip.

Tier contract
-------------
* Tier 0 is the on-chip Clique front-end.  It owns the round-by-round
  measurement-persistence filtering and triage, applies purely local
  corrections for trivial rounds, and accumulates the complex rounds'
  detection events into the trial's *off-chip window*.
* Tier 1 is one off-chip decoder that resolves the whole window through
  :meth:`~repro.decoders.base.Decoder.decode_event_windows`.  By name it is
  always ``"mwpm"``, the paper's MWPM baseline; any other off-chip decoder
  enters as a ready :class:`~repro.decoders.base.Decoder` instance.

So a cascade is spelled ``"clique,mwpm"``, ``("clique", "mwpm")`` or
``("clique", <Decoder>)``; every other spelling is a
:class:`~repro.exceptions.ConfigurationError` at construction.  A ready-made
tier must be built for the cascade's own code distance and stabilizer type,
or construction fails too.  Section 8.1 of the paper sketches deeper
hierarchies; a union-find middle tier was measured slower than this two-tier
design at every paper-relevant point without cutting off-chip traffic
(README.md → "Why two tiers"), so any other tier count is rejected.

Two decode paths share one off-chip entry point,
:meth:`~repro.decoders.base.Decoder.decode_event_windows`: per-trial
:meth:`DecoderCascade.decode_history`, the reference oracle, hands it one
window, and the production :meth:`DecoderCascade.decode_batch_packed`, which
triages 64 trials per machine word, hands it every off-chip window of the
batch in one call.  The batched path reads the windows sparsely, from only
the ``(round, word)`` columns whose complex word is nonzero
(:func:`repro.bitplane.column_event_windows`), so the off-chip tier can
solve them together — MWPM solves all its small windows in a few array
operations per event count.

The default ``tiers=("clique", "mwpm")`` is the paper's design; its seeded
outputs are pinned in ``tests/clique/test_cascade.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import bitplane
from repro.clique.decoder import CliqueDecoder, get_clique_decoder
from repro.clique.measurement_filter import PersistenceFilter
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder, DecodeResult, PackedBatchDecodeResult
from repro.decoders.mwpm import MWPMDecoder
from repro.exceptions import ConfigurationError
from repro.types import Coord, DecodeLocation, StabilizerType

#: Name of the on-chip front-end tier.
CLIQUE_TIER = "clique"
#: Name of the one off-chip tier a cascade builds itself.
MWPM_TIER = "mwpm"


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of decoding a full multi-round history through the cascade.

    Attributes:
        correction: combined data-qubit correction (on-chip XOR off-chip).
        onchip_correction: the part applied by the Clique tier.
        offchip_correction: the part applied by the off-chip tier.
        round_locations: per measurement round, whether it was resolved
            on-chip or had to go off-chip.
        offchip_rounds: indices of the rounds sent off-chip.
        tier_names: the cascade's tier names (``("clique", "mwpm")``, or
            ``("clique", <name>)`` for a ready non-MWPM off-chip tier).
    """

    correction: frozenset[Coord]
    onchip_correction: frozenset[Coord]
    offchip_correction: frozenset[Coord]
    round_locations: tuple[DecodeLocation, ...]
    offchip_rounds: tuple[int, ...] = ()
    tier_names: tuple[str, ...] = ()

    @property
    def num_rounds(self) -> int:
        return len(self.round_locations)

    @property
    def num_offchip_rounds(self) -> int:
        return len(self.offchip_rounds)

    @property
    def onchip_fraction(self) -> float:
        """Fraction of rounds fully handled inside the refrigerator."""
        if not self.round_locations:
            return 1.0
        return 1.0 - self.num_offchip_rounds / self.num_rounds


class DecoderCascade(Decoder):
    """Two-tier decode cascade: Clique triage on-chip, one decoder off-chip.

    Args:
        code: the surface code instance.
        stype: stabilizer type to decode.
        tiers: ``"clique,mwpm"``, ``("clique", "mwpm")`` or ``("clique",
            <Decoder>)``: the on-chip Clique tier, then the off-chip tier,
            MWPM by name or a ready :class:`~repro.decoders.base.Decoder`
            built for this cascade's ``code`` distance and ``stype``.
        measurement_rounds: window size of the Clique persistence filter
            (2 in the paper's primary design).
    """

    def __init__(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        tiers: str | Sequence["str | Decoder"] = (CLIQUE_TIER, MWPM_TIER),
        measurement_rounds: int = 2,
    ) -> None:
        super().__init__(code, stype)
        self._filter = PersistenceFilter(measurement_rounds)
        spec = tuple(tiers.split(",")) if isinstance(tiers, str) else tuple(tiers)
        offchip = spec[1] if len(spec) == 2 and spec[0] == CLIQUE_TIER else None
        # A CliqueDecoder is a Decoder too, but decodes single rounds only.
        ready = isinstance(offchip, Decoder) and not isinstance(offchip, CliqueDecoder)
        if not (offchip == MWPM_TIER or ready):
            raise ConfigurationError(
                f"a cascade has exactly two tiers: the first cascade tier is "
                f"{CLIQUE_TIER!r} and the off-chip cascade tier is {MWPM_TIER!r} "
                f"or a ready multi-round Decoder, as 'clique,mwpm', ('clique', "
                f"'mwpm') or ('clique', <Decoder>); got {tiers!r}"
            )
        if ready:
            self._check_offchip_target(offchip)
        else:
            offchip = MWPMDecoder(code, stype)
        self._clique = get_clique_decoder(code.distance, stype)
        self._offchip = offchip
        # A ready MWPM tier is the same tier as the one named "mwpm".
        self._tier_names = (
            CLIQUE_TIER,
            MWPM_TIER if isinstance(offchip, MWPMDecoder) else offchip.name,
        )

    def _check_offchip_target(self, tier: Decoder) -> None:
        """Reject a ready off-chip tier built for another code or stabilizer type.

        Such a tier would silently decode the wrong species (a Z tier in an
        X cascade) or index past its tables (another distance), so it fails
        here, naming the tier, instead of deep inside a decode call.
        """
        if (
            tier.code.distance != self._code.distance
            or tier.stabilizer_type is not self._stype
        ):
            raise ConfigurationError(
                f"cascade tier {tier.name!r} at position 1 was built for "
                f"distance {tier.code.distance}, {tier.stabilizer_type.name} "
                f"stabilizers; this cascade decodes distance "
                f"{self._code.distance}, {self._stype.name} stabilizers"
            )

    # ------------------------------------------------------------------
    @property
    def clique(self) -> CliqueDecoder:
        return self._clique

    @property
    def offchip(self) -> Decoder:
        """The off-chip tier."""
        return self._offchip

    @property
    def tier_names(self) -> tuple[str, ...]:
        """Both tier names, the on-chip Clique tier first."""
        return self._tier_names

    @property
    def num_tiers(self) -> int:
        return len(self._tier_names)

    @property
    def measurement_rounds(self) -> int:
        return self._filter.rounds

    @property
    def name(self) -> str:
        return "Cascade[" + ",".join(self._tier_names) + "]"

    # ------------------------------------------------------------------
    def decode_history(self, detections: np.ndarray) -> CascadeResult:
        """Decode a full detection-event history round by round."""
        matrix = self._as_detection_matrix(detections)
        num_rounds = matrix.shape[0]
        consumed = np.zeros_like(matrix)
        offchip_mask = np.zeros_like(matrix)
        onchip_correction: set[Coord] = set()
        locations: list[DecodeLocation] = []
        offchip_rounds: list[int] = []

        for round_index in range(num_rounds):
            visible = matrix[round_index] & ~consumed[round_index] & 1
            sticky, transient = self._filter.split(
                matrix & ~consumed & 1, round_index
            )
            sticky &= visible
            transient &= visible
            decision = self._clique.decide(sticky)
            if decision.is_trivial:
                onchip_correction ^= set(decision.correction)
                # Transient events and their future partners are explained as
                # measurement errors and never leave the chip.
                partner_mask = self._filter.transient_partner_mask(
                    matrix & ~consumed & 1, round_index, transient
                )
                consumed |= partner_mask
                locations.append(DecodeLocation.ON_CHIP)
            else:
                # The whole round's (unconsumed) events go off-chip.
                offchip_mask[round_index] = visible
                locations.append(DecodeLocation.OFF_CHIP)
                offchip_rounds.append(round_index)

        offchip_correction: set[Coord] = set()
        if offchip_mask.any():
            event_rounds, event_ancillas = np.nonzero(offchip_mask)
            bitmap = self._offchip.decode_event_windows(
                event_rounds,
                event_ancillas,
                np.array([0, event_rounds.size], dtype=np.int64),
            )[0]
            offchip_correction = self._bitmap_coords(bitmap)

        total = set(onchip_correction) ^ offchip_correction
        return CascadeResult(
            correction=frozenset(total),
            onchip_correction=frozenset(onchip_correction),
            offchip_correction=frozenset(offchip_correction),
            round_locations=tuple(locations),
            offchip_rounds=tuple(offchip_rounds),
            tier_names=self._tier_names,
        )

    def _bitmap_coords(self, bitmap: np.ndarray) -> set[Coord]:
        """Convert a data-qubit correction bitmap back to coordinate form."""
        data_qubits = self._code.data_qubits
        return {data_qubits[i] for i in np.flatnonzero(bitmap)}

    # ------------------------------------------------------------------
    def decode_batch_packed(
        self, detections: np.ndarray, trials: int
    ) -> PackedBatchDecodeResult:
        """Native packed triage: the whole batch as uint64 trial bitplanes.

        This is the paper's own triage insight applied to the simulator: the
        overwhelming majority of rounds are trivially explainable by the
        Clique logic, so their filtering, decision, and correction assembly
        run as whole-batch word operations (a Python loop over *rounds*, not
        over ``trials x rounds``), with AND/OR/XOR/NOT standing in for the
        boolean algebra 64 trials at a time.  The round-by-round dynamics
        mirror :meth:`decode_history` statement for statement.  Trivial
        rounds never leave word space; the off-chip minority is extracted
        as event windows (in increasing trial order, each window in the
        ``np.nonzero`` order that fixes tie-breaks) and decoded in one
        ``decode_event_windows`` call, the entry point
        :meth:`decode_history` uses with one window, keeping results and
        per-tier statistics bit-identical to the per-trial reference.
        Padding bits of the ragged last word stay zero throughout, so they
        are never sticky, complex, or counted.
        """
        planes = self._as_packed_detection_batch(detections, trials)
        num_rounds, num_ancillas, words = planes.shape
        window = self._filter.rounds
        clique = self._clique
        # ``live[r]``: round r's events not yet consumed as a transient's
        # partner, so the round's visible events once the loop reaches it
        # (no round changes an earlier one).  ``sticky``: the current
        # round's sticky events.  The extra last ancilla row of both stays
        # zero: it is the sentinel the Clique gathers read for missing
        # leaves.
        live = np.zeros((num_rounds, num_ancillas + 1, words), dtype=np.uint64)
        live[:, :num_ancillas] = planes
        sticky = np.empty((num_ancillas + 1, words), dtype=np.uint64)
        transient = np.empty_like(sticky)
        no_repeats = np.zeros_like(sticky)
        complex_words = np.empty((num_rounds, words), dtype=np.uint64)
        terms = clique.correction_terms_packed(words)

        for round_index in range(num_rounds):
            visible = live[round_index]
            partners = live[round_index + 1 : round_index + window]
            if len(partners) > 1:
                repeats = np.bitwise_or.reduce(partners, axis=0)
            else:
                repeats = partners[0] if len(partners) else no_repeats
            np.bitwise_and(visible, repeats, out=transient)
            np.bitwise_xor(visible, transient, out=sticky)
            # On-chip branch: the trivial trials' sticky events are
            # corrected, and each of their transient events consumes its
            # first future partner flip.  Complex trials keep the round's
            # visible events for the off-chip tier.
            complex_word = clique.triage_round_packed(sticky, terms)
            complex_words[round_index] = complex_word
            if not len(partners):
                continue
            transient &= ~complex_word
            for partner in partners[:-1]:
                hit = partner & transient
                partner ^= hit
                transient ^= hit
            # What is left repeats in the last partner round, by definition.
            partners[-1] ^= transient

        corrections = clique.correction_planes_from_terms(terms)
        # Per-trial off-chip round counts (real trials only — padding bits
        # are never sticky, so never complex).
        offchip_round_counts = (
            bitplane.unpack_trials(complex_words, trials)
            .sum(axis=1, dtype=np.int64)
        )
        # One call decodes every off-chip window of the batch: a complex
        # round queues its whole visible signature, read only from the
        # (round, word) columns whose complex word is nonzero.  Every
        # complex round ships at least one visible event, so the windows'
        # trials are exactly the off-chip trials, and the off-chip tier's
        # trials and rounds are the triage's own counts.
        column_rounds, column_words = np.nonzero(complex_words)
        columns = live[column_rounds, :num_ancillas, column_words]
        columns &= complex_words[column_rounds, column_words, None]
        window_trials, rounds, ancillas, bounds = bitplane.column_event_windows(
            columns, column_rounds, column_words
        )
        if window_trials.size:
            bitplane.scatter_xor_trial_bits(
                corrections,
                window_trials,
                self._offchip.decode_event_windows(rounds, ancillas, bounds),
            )
        offchip_trials = int(np.count_nonzero(offchip_round_counts))
        offchip_rounds = int(offchip_round_counts.sum())
        return PackedBatchDecodeResult(
            corrections=corrections,
            trials=trials,
            onchip_rounds=num_rounds - offchip_round_counts,
            total_rounds=np.full(trials, num_rounds, dtype=np.int64),
            tier_trials=np.array(
                [trials - offchip_trials, offchip_trials], dtype=np.int64
            ),
            tier_rounds=np.array(
                [trials * num_rounds - offchip_rounds, offchip_rounds],
                dtype=np.int64,
            ),
        )

    # ------------------------------------------------------------------
    def decode(self, detections: np.ndarray) -> DecodeResult:
        """Decoder-interface wrapper returning the combined correction."""
        result = self.decode_history(detections)
        return DecodeResult(
            correction=result.correction,
            handled=True,
            metadata={
                "num_offchip_rounds": result.num_offchip_rounds,
                "num_rounds": result.num_rounds,
                "onchip_fraction": result.onchip_fraction,
            },
        )


__all__ = ["CLIQUE_TIER", "MWPM_TIER", "CascadeResult", "DecoderCascade"]
