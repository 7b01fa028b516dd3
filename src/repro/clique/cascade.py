"""The N-tier decoder cascade (paper Section 8.1): Clique, then ever-heavier
off-chip decoders, each fed only its predecessor's escalation set.

The two-tier hierarchy of Fig. 2 — Clique on-chip, one robust decoder
off-chip — need not stop at two levels.  Section 8.1 of the paper sketches
the generalisation this module implements: a cheap on-chip Clique tier backed
by a mid-cost decoder (e.g. near-linear union-find clustering), with the
expensive exact matcher reserved for the residual *disagreement set* — the
trials the middle tier declines to resolve.  Deeper cascades buy
deeper-distance accuracy at a fraction of the final tier's cost and of the
off-chip bandwidth.

Tier contract
-------------
* Tier 0 is always the on-chip Clique front-end.  It owns the round-by-round
  measurement-persistence filtering and triage, applies purely local
  corrections for trivial rounds, and accumulates the complex rounds'
  detection events into the trial's *off-chip window*.
* Tiers ``1 .. N-1`` (intermediate) implement
  ``decode_events_tiered(rounds, ancillas) -> (bitmap, escalated)``: given
  one trial's off-chip events as flat index arrays, resolve what it can in
  place (the partial correction ``bitmap``) and name the *event subset* it
  declines — ``escalated`` is a sorted int64 array of positions into the
  input arrays (empty when fully resolved).  Escalation is per cluster, not
  per trial: only the members of each oversized cluster travel to the next
  tier.
* Tier ``N`` (final) must resolve everything it receives, through
  ``decode_events_bitmap(rounds, ancillas)`` when available (MWPM,
  clustering) or a per-trial ``decode`` call on the escalated events'
  reconstructed sub-mask otherwise.

Every tier — named or passed as a ready instance — must be built for the
cascade's own code distance and stabilizer type; a mismatch is a
:class:`~repro.exceptions.ConfigurationError` at construction.

Two decode paths share one off-chip descent
(:meth:`DecoderCascade._cascade_trial`): per-trial
:meth:`DecoderCascade.decode_history`, the reference oracle, and the
production :meth:`DecoderCascade.decode_batch_packed`, which triages 64
trials per machine word.  Event subsets flow tier-to-tier as index arrays:
the batched path performs a single ``np.nonzero`` pass over the stacked
off-chip masks, then each off-chip trial descends the tiers with its
surviving event subset — no per-trial Python bookkeeping beyond the
unavoidable per-trial decode calls of the rare off-chip minority.
``tier_rounds[k]`` for ``k >= 1`` counts the distinct detection rounds
actually shipped *into* tier ``k`` (the off-chip bandwidth figure):
per-cluster escalation shrinks deeper tiers' share even when a trial
technically escalates.

The paper's two-tier hierarchy of Fig. 2 is ``tiers=("clique", "mwpm")``
(the default); its seeded outputs from before the N-tier refactor are pinned
in ``tests/clique/test_cascade.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import bitplane
from repro.clique.decoder import CliqueDecoder
from repro.clique.measurement_filter import PersistenceFilter
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder, DecodeResult, PackedBatchDecodeResult
from repro.decoders.matching_graph import MatchingGraph
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.registry import CLIQUE_TIER, resolve_tier_name
from repro.decoders.union_find import (
    ClusteringDecoder,
    default_escalation_cluster_size,
)
from repro.exceptions import ConfigurationError
from repro.types import Coord, DecodeLocation, StabilizerType


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of decoding a full multi-round history through the cascade.

    Attributes:
        correction: combined data-qubit correction (on-chip XOR off-chip).
        onchip_correction: the part applied by the Clique tier.
        offchip_correction: the combined correction of all off-chip tiers —
            with per-cluster escalation, several tiers may each resolve part
            of the window.
        round_locations: per measurement round, whether it was resolved
            on-chip or had to go off-chip.
        offchip_rounds: indices of the rounds sent off-chip.
        handled_tier: index of the deepest tier that received any of the
            trial's events — 0 when every round stayed on-chip, ``k >= 1``
            when off-chip tier ``k`` resolved the last escalated subset
            (earlier off-chip tiers may have contributed partial
            corrections along the way).
        tier_shipped_rounds: per off-chip tier, the count of distinct
            detection rounds shipped into it (entry ``k`` is off-chip tier
            ``k + 1``); per-cluster escalation makes deeper entries shrink.
            Empty when every round stayed on-chip.
        tier_names: the cascade's tier names (``("clique", ...)``).
    """

    correction: frozenset[Coord]
    onchip_correction: frozenset[Coord]
    offchip_correction: frozenset[Coord]
    round_locations: tuple[DecodeLocation, ...]
    offchip_rounds: tuple[int, ...] = ()
    handled_tier: int = 0
    tier_shipped_rounds: tuple[int, ...] = ()
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
    """N-tier decode cascade: Clique triage, then escalating off-chip tiers.

    Args:
        code: the surface code instance.
        stype: stabilizer type to decode.
        tiers: the tier spec — a comma-separated string
            (``"clique,union_find,mwpm"``), or a sequence whose first entry
            is ``"clique"`` (or a ready :class:`CliqueDecoder`) and whose
            remaining entries are registered decoder names
            (:data:`repro.decoders.registry.TIER_DECODERS`) or ready
            :class:`~repro.decoders.base.Decoder` instances.  Instances must
            be built for this cascade's ``code`` distance and ``stype``.
            Named tiers share one
            :class:`~repro.decoders.matching_graph.MatchingGraph`; every tier
            except the last must be able to escalate (expose
            ``decode_events_tiered``).
        measurement_rounds: window size of the Clique persistence filter
            (2 in the paper's primary design).
        escalation_cluster_size: escalation threshold applied to named
            ``"union_find"`` tiers constructed in *intermediate* position —
            each grown cluster larger than this many events escalates its
            members to the next tier.  The default ``"auto"`` resolves to
            :func:`repro.decoders.union_find.default_escalation_cluster_size`
            for the code's distance (a deterministic per-distance value
            tuned offline against measured blossom cost — never a runtime
            timing, so seeded results stay machine-independent).  Instances
            passed directly keep their own policy.
    """

    def __init__(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        tiers: str | Sequence["str | Decoder"] = (CLIQUE_TIER, "mwpm"),
        measurement_rounds: int = 2,
        escalation_cluster_size: int | str = "auto",
    ) -> None:
        super().__init__(code, stype)
        if escalation_cluster_size == "auto":
            escalation_cluster_size = default_escalation_cluster_size(code.distance)
        elif isinstance(escalation_cluster_size, bool) or not isinstance(
            escalation_cluster_size, (int, np.integer)
        ):
            raise ConfigurationError(
                f"escalation_cluster_size must be an integer or 'auto', "
                f"got {escalation_cluster_size!r}"
            )
        self._escalation_cluster_size = int(escalation_cluster_size)
        if isinstance(tiers, str):
            tiers = tuple(part.strip() for part in tiers.split(","))
        else:
            tiers = tuple(tiers)
        if not tiers:
            raise ConfigurationError("a cascade needs at least two tiers")
        front = tiers[0]
        if isinstance(front, CliqueDecoder):
            self._check_tier_target(front, CLIQUE_TIER, 0)
            self._clique = front
        elif front == CLIQUE_TIER:
            self._clique = CliqueDecoder(code, stype)
        else:
            raise ConfigurationError(
                f"the first cascade tier must be {CLIQUE_TIER!r} (or a "
                f"CliqueDecoder instance), got {front!r}"
            )
        if len(tiers) < 2:
            raise ConfigurationError(
                f"a cascade needs at least one off-chip tier after "
                f"{CLIQUE_TIER!r}"
            )
        self._filter = PersistenceFilter(measurement_rounds)

        # Named tiers share one matching graph: it is deterministic per
        # (code, stype), so separate per-tier copies would just repeat the
        # all-pairs distance precomputation.
        shared_graph: MatchingGraph | None = None
        offchip: list[Decoder] = []
        names: list[str] = [CLIQUE_TIER]
        for position, spec in enumerate(tiers[1:]):
            is_last = position == len(tiers) - 2
            if isinstance(spec, str):
                tier_cls = resolve_tier_name(spec)
                if shared_graph is None:
                    shared_graph = MatchingGraph(code, stype)
                if tier_cls is MWPMDecoder:
                    tier: Decoder = MWPMDecoder(
                        code, stype, matching_graph=shared_graph
                    )
                elif tier_cls is ClusteringDecoder:
                    tier = ClusteringDecoder(
                        code,
                        stype,
                        matching_graph=shared_graph,
                        escalation_cluster_size=(
                            None if is_last else escalation_cluster_size
                        ),
                    )
                else:  # pragma: no cover - future registry entries
                    tier = tier_cls(code, stype)
                names.append(spec)
            elif isinstance(spec, Decoder):
                self._check_tier_target(spec, spec.name, position + 1)
                tier = spec
                names.append(spec.name)
            else:
                raise ConfigurationError(
                    f"cascade tier {position + 1} must be a registered "
                    f"decoder name or a Decoder instance, got {spec!r}"
                )
            if not is_last and getattr(tier, "decode_events_tiered", None) is None:
                raise ConfigurationError(
                    f"tier {names[-1]!r} at position {position + 1} cannot "
                    f"escalate (no decode_events_tiered); only the final "
                    f"cascade tier may lack an escalation path"
                )
            offchip.append(tier)
        self._offchip_tiers = tuple(offchip)
        self._tier_names = tuple(names)

    def _check_tier_target(self, tier: Decoder, name: str, position: int) -> None:
        """Reject a ready-made tier built for another code or stabilizer type.

        Such a tier would silently decode the wrong species (a Z tier in an
        X cascade) or index past its tables (another distance), so it fails
        here, naming the tier, instead of deep inside a decode call.
        """
        if (
            tier.code.distance != self._code.distance
            or tier.stabilizer_type is not self._stype
        ):
            raise ConfigurationError(
                f"cascade tier {name!r} at position {position} was built for "
                f"distance {tier.code.distance}, {tier.stabilizer_type.name} "
                f"stabilizers; this cascade decodes distance "
                f"{self._code.distance}, {self._stype.name} stabilizers"
            )

    # ------------------------------------------------------------------
    @property
    def clique(self) -> CliqueDecoder:
        return self._clique

    @property
    def offchip_tiers(self) -> tuple[Decoder, ...]:
        """The off-chip tiers, in escalation order (tier 1 first)."""
        return self._offchip_tiers

    @property
    def tier_names(self) -> tuple[str, ...]:
        """All tier names, the on-chip Clique tier first."""
        return self._tier_names

    @property
    def num_tiers(self) -> int:
        return 1 + len(self._offchip_tiers)

    @property
    def measurement_rounds(self) -> int:
        return self._filter.rounds

    @property
    def escalation_cluster_size(self) -> int:
        """The resolved intermediate-tier escalation threshold."""
        return self._escalation_cluster_size

    @property
    def name(self) -> str:
        if type(self) is DecoderCascade:
            return "Cascade[" + ",".join(self._tier_names) + "]"
        return type(self).__name__

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
                consumed[round_index] |= transient | sticky
                locations.append(DecodeLocation.ON_CHIP)
            else:
                # The whole round's (unconsumed) events go to the off-chip cascade.
                offchip_mask[round_index] = visible
                consumed[round_index] |= visible
                locations.append(DecodeLocation.OFF_CHIP)
                offchip_rounds.append(round_index)

        offchip_correction: set[Coord] = set()
        handled_tier = 0
        shipped: list[int] = []
        if offchip_mask.any():
            event_rounds, event_ancillas = np.nonzero(offchip_mask)
            bitmap, handled_tier, shipped = self._cascade_trial(
                event_rounds, event_ancillas, offchip_mask.shape
            )
            offchip_correction = self._bitmap_coords(bitmap)

        total = set(onchip_correction) ^ offchip_correction
        return CascadeResult(
            correction=frozenset(total),
            onchip_correction=frozenset(onchip_correction),
            offchip_correction=frozenset(offchip_correction),
            round_locations=tuple(locations),
            offchip_rounds=tuple(offchip_rounds),
            handled_tier=handled_tier,
            tier_shipped_rounds=tuple(shipped),
            tier_names=self._tier_names,
        )

    def _bitmap_coords(self, bitmap: np.ndarray) -> set[Coord]:
        """Convert a data-qubit correction bitmap back to coordinate form."""
        data_qubits = self._code.data_qubits
        return {data_qubits[i] for i in np.flatnonzero(bitmap)}

    # ------------------------------------------------------------------
    def _cascade_trial(
        self,
        event_rounds: np.ndarray,
        event_ancillas: np.ndarray,
        mask_shape: tuple[int, int],
    ) -> tuple[np.ndarray, int, list[int]]:
        """Send one trial's off-chip events down the off-chip tiers.

        The single shared descent used by both :meth:`decode_history` and
        the batched path — which is what keeps them bit-identical.  Each
        intermediate tier XORs its partial correction into the trial's
        bitmap and hands the surviving event subset (oversized clusters'
        members) to the next tier; the final tier resolves whatever reaches
        it.  Returns ``(bitmap, handled_tier, shipped_rounds)`` where
        ``handled_tier`` is the deepest tier reached (1-based over off-chip
        tiers) and ``shipped_rounds[k]`` counts the distinct detection
        rounds shipped into off-chip tier ``k`` — the per-tier bandwidth
        figure behind ``tier_rounds``.
        """
        bitmap = np.zeros(self._code.num_data_qubits, dtype=np.uint8)
        rounds = event_rounds
        ancillas = event_ancillas
        shipped: list[int] = []
        handled = 0
        last = len(self._offchip_tiers) - 1
        for tier_index, tier in enumerate(self._offchip_tiers):
            shipped.append(int(np.unique(rounds).size))
            handled = tier_index + 1
            if tier_index == last:
                decode_events = getattr(tier, "decode_events_bitmap", None)
                if decode_events is not None:
                    bitmap ^= decode_events(rounds, ancillas)
                else:
                    # Custom final tiers see the matrix-level decode() entry
                    # point they expect, on the escalated events' sub-mask.
                    submask = np.zeros(mask_shape, dtype=np.uint8)
                    submask[rounds, ancillas] = 1
                    data_index = self._code.data_index
                    for qubit in tier.decode(submask).correction:
                        bitmap[data_index[qubit]] ^= 1
                break
            partial, escalated = tier.decode_events_tiered(rounds, ancillas)
            escalated = np.asarray(escalated, dtype=np.int64)
            if partial is not None:
                bitmap ^= partial
            if escalated.size == 0:
                break
            rounds = rounds[escalated]
            ancillas = ancillas[escalated]
        return bitmap, handled, shipped

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
        rounds never leave word space; the escalated minority is extracted
        (in increasing trial order, so the shared ``np.nonzero``-fixed
        tie-breaks are preserved) and descends the same off-chip tier path
        as :meth:`decode_history`, keeping results and per-tier statistics
        bit-identical to the per-trial reference.  Padding bits of the
        ragged last word stay zero throughout, so they are never sticky,
        complex, or counted.
        """
        planes = self._as_packed_detection_batch(detections, trials)
        num_rounds = planes.shape[0]
        words = planes.shape[2]
        window = self._filter.rounds
        consumed = np.zeros_like(planes)
        offchip_planes = np.zeros_like(planes)
        offchip_words = np.zeros((num_rounds, words), dtype=np.uint64)
        corrections = np.zeros(
            (self._code.num_data_qubits, words), dtype=np.uint64
        )

        for round_index in range(num_rounds):
            window_end = min(round_index + window, num_rounds)
            masked = (
                planes[round_index:window_end] & ~consumed[round_index:window_end]
            )
            visible = masked[0]
            if masked.shape[0] > 1:
                repeats = np.bitwise_or.reduce(masked[1:], axis=0)
            else:
                repeats = np.zeros_like(visible)
            sticky = visible & ~repeats
            transient = visible & repeats
            complex_word = self._clique.complex_any_packed(sticky)
            trivial_word = ~complex_word

            # On-chip branch: XOR-across-rounds corrections, and each
            # transient event consumes its first future partner flip.
            corrections ^= self._clique.correction_planes_packed(
                sticky & trivial_word
            )
            remaining = transient & trivial_word
            for offset in range(1, window_end - round_index):
                if not remaining.any():
                    break
                hit = remaining & masked[offset]
                consumed[round_index + offset] |= hit
                remaining &= ~hit

            # Off-chip branch: complex trials queue the round's whole
            # visible signature for the off-chip tiers.
            offchip_planes[round_index] = visible & complex_word
            offchip_words[round_index] = complex_word

            # Both branches consume everything visible this round.
            consumed[round_index] |= visible

        # Per-trial off-chip round counts (real trials only — padding bits
        # are zero in every complex word by the trivial default above).
        offchip_round_counts = (
            bitplane.unpack_trials(offchip_words, trials)
            .sum(axis=1, dtype=np.int64)
        )

        tier_trials = np.zeros(self.num_tiers, dtype=np.int64)
        tier_rounds = np.zeros(self.num_tiers, dtype=np.int64)
        offchip_trials = np.flatnonzero(offchip_round_counts)
        tier_trials[0] = trials - offchip_trials.size
        tier_rounds[0] = trials * num_rounds - int(offchip_round_counts.sum())
        if offchip_trials.size:
            masks = bitplane.extract_trial_bits(offchip_planes, offchip_trials)
            bitplane.scatter_xor_trial_bits(
                corrections,
                offchip_trials,
                self._offchip_corrections(
                    masks,
                    tier_trials,
                    tier_rounds,
                ),
            )

        return PackedBatchDecodeResult(
            corrections=corrections,
            trials=trials,
            onchip_rounds=num_rounds - offchip_round_counts,
            total_rounds=np.full(trials, num_rounds, dtype=np.int64),
            tier_trials=tier_trials,
            tier_rounds=tier_rounds,
        )

    # ------------------------------------------------------------------
    def _offchip_corrections(
        self,
        masks: np.ndarray,
        tier_trials: np.ndarray,
        tier_rounds: np.ndarray,
    ) -> np.ndarray:
        """Cascade the off-chip trials' detection masks down the tiers.

        One ``np.nonzero`` pass over the stacked masks yields every off-chip
        trial's event list at once — in the same row-major
        ``(round, ancilla)`` order a per-trial ``np.nonzero`` would produce,
        which keeps equal-weight tie-breaks, and therefore results,
        bit-identical to per-trial decoding.  Each trial then descends the
        tiers via :meth:`_cascade_trial`: intermediate tiers resolve small
        clusters in place and escalate only oversized clusters' event
        subsets, the final tier resolves the rest.
        ``tier_trials``/``tier_rounds`` are updated in place (tier 0 entries
        are the caller's): trials count toward the deepest tier they
        reached, rounds toward every tier their events were shipped into.
        """
        num_trials = masks.shape[0]
        corrections = np.zeros((num_trials, self._code.num_data_qubits), dtype=np.uint8)
        trial_ids, rounds, ancillas = np.nonzero(masks)
        bounds = np.searchsorted(trial_ids, np.arange(num_trials + 1))
        mask_shape = masks.shape[1:]

        for trial in range(num_trials):
            start, end = bounds[trial], bounds[trial + 1]
            if start == end:  # pragma: no cover - off-chip trials have events
                tier_trials[1] += 1
                continue
            bitmap, handled, shipped = self._cascade_trial(
                rounds[start:end], ancillas[start:end], mask_shape
            )
            corrections[trial] = bitmap
            tier_trials[handled] += 1
            for offset, count in enumerate(shipped):
                tier_rounds[1 + offset] += count
        return corrections

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
                "handled_tier": result.handled_tier,
                "tier_shipped_rounds": result.tier_shipped_rounds,
            },
        )


__all__ = ["CascadeResult", "DecoderCascade"]
