"""Tests for the two-tier decoder cascade (Clique -> one off-chip decoder).

Covers the three tier spellings and construction validation, the bit-identity
of the packed batch cascade path against the per-trial ``decode_history``
reference, and — the load-bearing guarantee — the cascade's seeded outputs
on all three Monte-Carlo engines, pinned against frozen values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.clique.decoder import CliqueDecoder, get_clique_decoder
from repro.codes.rotated_surface import get_code
from repro.decoders.base import Decoder
from repro.decoders.mwpm import MWPMDecoder
from repro.exceptions import ConfigurationError
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.memory import run_memory_experiment
from repro.simulation.scheduler import SweepScheduler, memory_point
from repro.types import DecodeLocation, StabilizerType

from offchip_tiers import READY_TIERS, ReadyTierCascade

TIERS = ("clique", "mwpm")


def _width(code):
    return code.num_ancillas_of_type(StabilizerType.X)


class _OtherSpeciesFinalTier:
    """Picklable factory of a cascade whose final tier decodes the *other*
    stabilizer type — the misconfiguration construction must reject."""

    def __call__(self, code, stype):
        other = StabilizerType.Z if stype is StabilizerType.X else StabilizerType.X
        return DecoderCascade(code, stype, tiers=("clique", MWPMDecoder(code, other)))


class _WindowRecordingMWPM(MWPMDecoder):
    """MWPM tier that records every event window it is handed, per call."""

    def __init__(self, code, stype):
        super().__init__(code, stype)
        self.calls = []

    def decode_event_windows(self, rounds, ancillas, bounds):
        self.calls.append(
            [
                (rounds[start:end].tolist(), ancillas[start:end].tolist())
                for start, end in zip(bounds[:-1], bounds[1:])
            ]
        )
        return super().decode_event_windows(rounds, ancillas, bounds)

    @property
    def windows(self):
        return [window for call in self.calls for window in call]


def _decode_packed(cascade, batch):
    """Run an unpacked ``(trials, rounds, ancillas)`` batch through the
    production packed path; corrections come back unpacked."""
    trials = batch.shape[0]
    result = cascade.decode_batch_packed(bitplane.pack_trials(batch), trials)
    return result, bitplane.unpack_trials(result.corrections, trials)


#: The three spellings of the one named cascade, each as a factory of its
#: ``tiers`` argument (the third builds a ready MWPM tier).
_SPELLINGS = {
    "string": lambda code, stype: "clique,mwpm",
    "names": lambda code, stype: ("clique", "mwpm"),
    "instance": lambda code, stype: ("clique", MWPMDecoder(code, stype)),
}


class TestTierSpellings:
    """The cascade takes exactly three spellings of its tiers, and they are
    one decoder: identical seeded results and tier names."""

    @pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
    def test_each_spelling_is_the_clique_mwpm_cascade(self, code_d5, spelling):
        tiers = _SPELLINGS[spelling](code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=tiers)
        assert cascade.tier_names == ("clique", "mwpm")
        assert cascade.name == "Cascade[clique,mwpm]"
        assert isinstance(cascade.offchip, MWPMDecoder)

    def test_spellings_give_bit_identical_seeded_batches(self, code_d5):
        results = {
            spelling: run_memory_experiment(
                code_d5,
                PhenomenologicalNoise(2e-2),
                lambda code, stype, make=make: DecoderCascade(
                    code, stype, tiers=make(code, stype)
                ),
                trials=300,
                rng=1234,
                engine="batch",
            )
            for spelling, make in _SPELLINGS.items()
        }
        first = results["string"]
        assert first.tier_names == ("clique", "mwpm")
        assert first.tier_trials[1] > 0
        for result in results.values():
            assert result == first

    @pytest.mark.parametrize(
        "spec",
        [
            "clique,union_find",
            "clique",
            "clique,mwpm,mwpm",
            "mwpm,clique",
            "clique,,mwpm",
            ("clique", "union_find"),
            ("clique", "mwpm", "mwpm"),
            ("clique", 3),
            (),
        ],
        ids=repr,
    )
    def test_every_other_spelling_is_rejected(self, code_d5, spec):
        with pytest.raises(ConfigurationError, match="exactly two tiers"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=spec)

    def test_unknown_tier_lists_valid_names(self, code_d5):
        # The error names both tiers, the accepted spellings and what it got.
        with pytest.raises(ConfigurationError) as excinfo:
            DecoderCascade(code_d5, StabilizerType.X, tiers="clique,blossom")
        message = str(excinfo.value)
        for name in ("'clique'", "'mwpm'", "'clique,mwpm'", "('clique', <Decoder>)"):
            assert name in message
        assert message.endswith("got 'clique,blossom'")


class TestConstruction:
    def test_string_spec_builds_two_tiers(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers="clique,mwpm")
        assert cascade.tier_names == TIERS
        assert cascade.num_tiers == 2
        assert isinstance(cascade.offchip, MWPMDecoder)

    def test_instance_offchip_tier_is_accepted(self, code_d5):
        final = MWPMDecoder(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", final))
        assert cascade.offchip is final
        assert cascade.tier_names == TIERS
        assert cascade.num_tiers == 2

    def test_three_tiers_with_instances_are_rejected(self, code_d5):
        middle = MWPMDecoder(code_d5, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="exactly two tiers"):
            DecoderCascade(
                code_d5, StabilizerType.X, tiers=("clique", middle, "mwpm")
            )

    def test_non_decoder_offchip_tier_is_rejected(self, code_d5):
        with pytest.raises(ConfigurationError, match="off-chip cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", 3))
        # A Clique decoder decodes one round, not an off-chip window.
        clique = CliqueDecoder(code_d5, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="off-chip cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", clique))

    def test_bad_front_tier_is_rejected(self, code_d5):
        with pytest.raises(ConfigurationError, match="first cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("mwpm", "mwpm"))
        final = MWPMDecoder(code_d5, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="first cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("mwpm", final))
        # The on-chip tier is always the cached Clique decoder, by name.
        front = CliqueDecoder(code_d5, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="first cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=(front, "mwpm"))

    @pytest.mark.parametrize("rounds", [0, 2.5, True])
    def test_bad_measurement_rounds_are_rejected_at_construction(self, code_d5, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            DecoderCascade(code_d5, StabilizerType.X, measurement_rounds=rounds)

    def test_clique_tier_is_the_cached_decoder(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.Z)
        assert cascade.clique is get_clique_decoder(5, StabilizerType.Z)

    def test_default_is_the_two_tier_clique_mwpm_hierarchy(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X)
        assert cascade.tier_names == ("clique", "mwpm")
        assert isinstance(cascade.offchip, MWPMDecoder)
        assert cascade.measurement_rounds == 2
        assert cascade.name == "Cascade[clique,mwpm]"


class TestTierTargetValidation:
    """Ready-made tiers must be built for the cascade's own code distance and
    stabilizer type; a mismatch is rejected at construction, naming the
    tier, instead of silently decoding the wrong species or crashing inside
    a decode call."""

    def test_final_tier_of_the_other_stabilizer_type_is_rejected(self, code_d5):
        wrong = MWPMDecoder(code_d5, StabilizerType.Z)
        with pytest.raises(ConfigurationError, match=r"'MWPMDecoder' at position 1"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", wrong))

    def test_final_tier_of_another_distance_is_rejected(self, code_d5, code_d7):
        wrong = MWPMDecoder(code_d7, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="distance 7"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", wrong))

    @pytest.mark.parametrize("engine", ["loop", "batch", "sharded"])
    def test_mismatched_tier_fails_before_any_trial_runs(self, code_d5, engine):
        # The reported failure mode: a Z-type final tier in an X cascade used
        # to run silently on every engine and roughly triple the logical
        # failures.  Now the factory call itself fails.
        args = (code_d5, PhenomenologicalNoise(2e-2), _OtherSpeciesFinalTier())
        with pytest.raises(ConfigurationError, match="Z stabilizers"):
            if engine == "sharded":
                point = memory_point("p", *args, trials=50, seed=1)
                SweepScheduler(workers=1).run([point])
            else:
                run_memory_experiment(*args, trials=50, rng=1, engine=engine)

    def test_matching_instances_on_an_equal_code_are_accepted(self, code_d5):
        # Distance and stabilizer type decide, not object identity: a tier
        # built on a separately constructed code of the same distance fits.
        other = type(code_d5)(5)
        final = MWPMDecoder(other, StabilizerType.Z)
        cascade = DecoderCascade(code_d5, StabilizerType.Z, tiers=("clique", final))
        assert cascade.offchip is final


def _assert_packed_matches_decode_history(cascade, batch):
    """Trial by trial, the packed batch result must equal ``decode_history``:
    corrections, on-chip rounds, and the on-/off-chip trial and round
    counts."""
    code = cascade.code
    data_index = code.data_index
    result, corrections = _decode_packed(cascade, batch)
    tier_trials = np.zeros(2, dtype=np.int64)
    tier_rounds = np.zeros(2, dtype=np.int64)
    for trial in range(batch.shape[0]):
        reference = cascade.decode_history(batch[trial])
        bitmap = np.zeros(code.num_data_qubits, dtype=np.uint8)
        for qubit in reference.correction:
            bitmap[data_index[qubit]] ^= 1
        assert np.array_equal(corrections[trial], bitmap)
        onchip = reference.num_rounds - reference.num_offchip_rounds
        assert result.onchip_rounds[trial] == onchip
        assert result.total_rounds[trial] == reference.num_rounds
        tier_trials[int(reference.num_offchip_rounds > 0)] += 1
        tier_rounds += (onchip, reference.num_offchip_rounds)
    assert np.array_equal(result.tier_trials, tier_trials)
    assert np.array_equal(result.tier_rounds, tier_rounds)
    assert int(result.tier_trials.sum()) == batch.shape[0]


class TestBatchedCascadeBitIdentity:
    """The packed batch cascade path must stay bit-identical to the
    per-trial decode_history reference — including the on-/off-chip trial
    and round counts."""

    @pytest.mark.parametrize("measurement_rounds", [1, 2, 3])
    @pytest.mark.parametrize("distance", [5, 7])
    @pytest.mark.parametrize("final", ["mwpm", *READY_TIERS])
    def test_decode_batch_matches_decode_history(
        self, distance, final, measurement_rounds
    ):
        # The named MWPM tier solves a batch's windows together; the ready
        # tiers reach each window through the base per-window loop.
        code = get_code(distance)
        offchip = final if final == "mwpm" else READY_TIERS[final](code, StabilizerType.X)
        cascade = DecoderCascade(
            code,
            StabilizerType.X,
            tiers=("clique", offchip),
            measurement_rounds=measurement_rounds,
        )
        rng = np.random.default_rng(29)
        # Densities straddle the triage point so plenty of trials go
        # off-chip.
        for density in (0.05, 0.18):
            batch = (rng.random((40, distance + 1, _width(code))) < density).astype(
                np.uint8
            )
            _assert_packed_matches_decode_history(cascade, batch)

    def test_consumed_partner_flips_a_later_decision(self, code_d5):
        # Three consecutive events on bulk ancilla a (rounds 0-2), and a
        # data error on the qubit a shares with bulk neighbour b at round 2.
        # Round 0's transient event consumes a's round-1 event, so a's
        # round-2 event stays visible and pairs with b's: round 2 is
        # trivial and corrects the shared qubit.  Without the round-0 event,
        # a's round-1 transient consumes that round-2 event instead and b is
        # left alone, so round 2 goes off-chip.
        clique = get_clique_decoder(5, StabilizerType.X)
        bulk = {c.ancilla_index for c in clique.cliques if not c.boundary_qubits}
        a, slot = next(
            (c.ancilla_index, slot)
            for c in clique.cliques
            if c.ancilla_index in bulk
            for slot, leaf in enumerate(c.neighbor_indices)
            if leaf in bulk
        )
        b = clique.cliques[a].neighbor_indices[slot]
        shared = clique.cliques[a].shared_qubits[slot]
        triple = np.zeros((6, _width(code_d5)), dtype=np.uint8)
        triple[[0, 1, 2, 2], [a, a, a, b]] = 1
        pair = triple.copy()
        pair[0, a] = 0
        cascade = DecoderCascade(code_d5, StabilizerType.X)
        with_triple = cascade.decode_history(triple)
        with_pair = cascade.decode_history(pair)
        assert with_triple.round_locations[2] is DecodeLocation.ON_CHIP
        assert shared in with_triple.onchip_correction
        assert with_pair.round_locations[2] is DecodeLocation.OFF_CHIP
        _assert_packed_matches_decode_history(cascade, np.stack([triple, pair]))

    @staticmethod
    def _assert_ready_tier_decodes_like_mwpm(code, tier_class):
        via_ready = ReadyTierCascade(tier_class)(code, StabilizerType.X)
        # A ready tier that is not MWPM reports its own name.
        assert via_ready.tier_names == ("clique", tier_class.__name__)
        via_mwpm = DecoderCascade(code, StabilizerType.X, tiers=("clique", "mwpm"))
        rng = np.random.default_rng(31)
        batch = (rng.random((30, 6, _width(code))) < 0.15).astype(np.uint8)
        _assert_packed_matches_decode_history(via_ready, batch)
        ready, ready_corrections = _decode_packed(via_ready, batch)
        mwpm, mwpm_corrections = _decode_packed(via_mwpm, batch)
        assert np.array_equal(ready_corrections, mwpm_corrections)
        assert np.array_equal(ready.onchip_rounds, mwpm.onchip_rounds)
        assert np.array_equal(ready.tier_trials, mwpm.tier_trials)

    def test_offchip_tier_without_bitmap_hook_still_matches(self, code_d5):
        # An off-chip tier that only implements decode() exercises the base
        # decode_event_windows' per-window detection-mask path.
        self._assert_ready_tier_decodes_like_mwpm(code_d5, READY_TIERS["decode-only"])

    def test_offchip_tier_with_only_the_bitmap_hook_still_matches(self, code_d5):
        # A tier with decode_events_bitmap but no decode_event_windows of its
        # own takes the base loop's per-window hook path.
        self._assert_ready_tier_decodes_like_mwpm(code_d5, READY_TIERS["bitmap-hook"])

    def test_generic_packed_fallback_matches_decode_history(self, code_d5):
        # The base per-trial loop over decode(), run on a cascade, reads the
        # round split from decode()'s metadata; it must report the same
        # corrections as the native packed path and decode_history's split.
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=TIERS)
        rng = np.random.default_rng(47)
        batch = (rng.random((20, 6, _width(code_d5))) < 0.15).astype(np.uint8)
        trials = batch.shape[0]
        result = Decoder.decode_batch_packed(
            cascade, bitplane.pack_trials(batch), trials
        )
        _, packed_corrections = _decode_packed(cascade, batch)
        assert np.array_equal(
            bitplane.unpack_trials(result.corrections, trials), packed_corrections
        )
        for trial in range(trials):
            reference = cascade.decode_history(batch[trial])
            assert result.onchip_rounds[trial] == (
                reference.num_rounds - reference.num_offchip_rounds
            )
            assert result.total_rounds[trial] == reference.num_rounds

    @pytest.mark.parametrize(
        "tiers",
        [
            lambda code, stype: TIERS,
            lambda code, stype: ("clique", READY_TIERS["bitmap-hook"](code, stype)),
        ],
        ids=["mwpm", "bitmap-hook"],
    )
    def test_tier_counts_are_the_triage_counts(self, code_d5, tiers):
        # The counts come from triage, whichever off-chip tier is behind it.
        cascade = DecoderCascade(
            code_d5, StabilizerType.X, tiers=tiers(code_d5, StabilizerType.X)
        )
        rng = np.random.default_rng(43)
        batch = (rng.random((40, 6, _width(code_d5))) < 0.15).astype(np.uint8)
        result, _ = _decode_packed(cascade, batch)
        offchip_per_trial = result.total_rounds - result.onchip_rounds
        assert result.tier_rounds.tolist() == [
            int(result.onchip_rounds.sum()),
            int(offchip_per_trial.sum()),
        ]
        assert result.tier_trials.tolist() == [
            int((offchip_per_trial == 0).sum()),
            int((offchip_per_trial > 0).sum()),
        ]
        assert 0 < result.tier_trials[1] < 40

    def test_tier_rounds_accounting(self, code_d5):
        # The triage counts stand in for the off-chip tier's own traffic:
        # every complex round ships at least one visible event, so the
        # distinct event rounds the off-chip tier receives are exactly the
        # rounds counted off-chip, and it sees one window per off-chip trial
        # (all of a batch's windows in one call).
        recorder = _WindowRecordingMWPM(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", recorder))
        rng = np.random.default_rng(53)
        for density in (0.05, 0.15, 0.3):
            batch = (rng.random((40, 6, _width(code_d5))) < density).astype(np.uint8)
            recorder.calls.clear()
            result, _ = _decode_packed(cascade, batch)
            assert len(recorder.calls) == 1
            shipped_rounds = [np.unique(rounds).tolist() for rounds, _ in recorder.windows]
            assert result.tier_trials[1] == len(shipped_rounds)
            assert result.tier_rounds[1] == sum(map(len, shipped_rounds))
            for trial in range(batch.shape[0]):
                recorder.calls.clear()
                reference = cascade.decode_history(batch[trial])
                shipped_rounds = [
                    np.unique(rounds).tolist() for rounds, _ in recorder.windows
                ]
                expected = [list(reference.offchip_rounds)] if reference.offchip_rounds else []
                assert shipped_rounds == expected

    @pytest.mark.parametrize("trials", [64, 150])
    def test_offchip_tier_sees_the_per_trial_events_in_order(self, code_d5, trials):
        # The packed path reads off-chip events sparsely from the packed
        # planes (bitplane.event_windows); each off-chip trial's window must
        # reach the tier with exactly the (round, ancilla) event list, in the
        # same order, that decode_history ships for it — the order fixes the
        # matcher's tie-breaks.
        recorder = _WindowRecordingMWPM(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", recorder))
        rng = np.random.default_rng(59)
        batch = (rng.random((trials, 6, _width(code_d5))) < 0.12).astype(np.uint8)
        _decode_packed(cascade, batch)
        packed_windows = recorder.windows
        recorder.calls.clear()
        for trial in range(trials):
            cascade.decode_history(batch[trial])
        assert len(packed_windows) > 1
        assert packed_windows == recorder.windows


#: Frozen seeded outputs — trials=300, p=2e-2, seed=1234, rounds=distance;
#: sharded at workers=1 with the default chunk.  The cascade reproduced the
#: original two-tier hierarchy's counts bit for bit on the dense-uniform
#: noise stream; these are re-taken on each new noise stream since, most
#: recently the 2048-trial block sampler's (``CODE_VERSION_SALT`` v4), where
#: loop and batch agree with each other.
PRE_REFACTOR_SEEDED = {
    # (fallback, distance, engine): (logical_failures, onchip_rounds,
    #                                total_rounds, tier_trials, tier_rounds)
    ("mwpm", 3, "loop"): (13, 1198, 1200, (298, 2), (1198, 2)),
    ("mwpm", 3, "batch"): (13, 1198, 1200, (298, 2), (1198, 2)),
    ("mwpm", 3, "sharded"): (16, 1199, 1200, (299, 1), (1199, 1)),
    ("mwpm", 5, "loop"): (12, 1654, 1800, (192, 108), (1654, 146)),
    ("mwpm", 5, "batch"): (12, 1654, 1800, (192, 108), (1654, 146)),
    ("mwpm", 5, "sharded"): (25, 1663, 1800, (199, 101), (1663, 137)),
}


class TestPreRefactorEquivalence:
    """``DecoderCascade(("clique", f))`` must be bit-identical to the
    pre-refactor two-tier hierarchy under fixed seeds on the loop, batch,
    and sharded engines.  A ready tier that solves each window as MWPM does,
    through either branch of the base per-window loop, must reproduce the
    same frozen MWPM outputs."""

    @pytest.mark.parametrize("distance", [3, 5])
    @pytest.mark.parametrize("fallback", ["mwpm", *READY_TIERS])
    @pytest.mark.parametrize("engine", ["loop", "batch", "sharded"])
    def test_two_tier_cascade_reproduces_frozen_outputs(
        self, distance, fallback, engine
    ):
        expected = PRE_REFACTOR_SEEDED[("mwpm", distance, engine)]
        factory = (
            DecoderCascade
            if fallback == "mwpm"
            else ReadyTierCascade(READY_TIERS[fallback])
        )
        args = (get_code(distance), PhenomenologicalNoise(2e-2), factory)
        if engine == "sharded":
            point = memory_point("p", *args, trials=300, seed=1234)
            result = SweepScheduler(workers=1).run([point])["p"]
        else:
            result = run_memory_experiment(*args, trials=300, rng=1234, engine=engine)
        assert (
            result.logical_failures,
            result.onchip_rounds,
            result.total_rounds,
            result.tier_trials,
            result.tier_rounds,
        ) == expected


class TestCascadeAcrossEngines:
    """The cascade rides every engine with consistent tier stats (its seeded
    counts are covered by the frozen pins above)."""

    def test_loop_and_batch_agree_including_tier_stats(self, code_d5):
        kwargs = dict(trials=200, rng=7)
        loop = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            DecoderCascade,
            engine="loop",
            **kwargs,
        )
        batch = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            DecoderCascade,
            engine="batch",
            **kwargs,
        )
        assert loop == batch
        assert loop.tier_names == TIERS
        assert sum(loop.tier_trials) == loop.trials
        assert loop.tier_rounds == (
            loop.onchip_rounds,
            loop.total_rounds - loop.onchip_rounds,
        )

    def test_sharded_worker_count_never_changes_tier_stats(self, code_d5):
        point = memory_point(
            "p", code_d5, PhenomenologicalNoise(2e-2), DecoderCascade,
            trials=400, seed=11,
        )
        one = SweepScheduler(workers=1).run([point])["p"]
        four = SweepScheduler(workers=4).run([point])["p"]
        assert one == four
        assert sum(one.tier_trials) == one.trials

    def test_offchip_accessors(self, code_d5):
        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            DecoderCascade,
            trials=300,
            rng=13,
        )
        assert result.offchip_trial_fraction == result.tier_trials[1] / 300
        assert result.offchip_rounds_per_trial == (
            (result.total_rounds - result.onchip_rounds) / 300
        )
        assert 0.0 < result.offchip_trial_fraction < 1.0
        assert result.offchip_rounds_per_trial >= result.offchip_trial_fraction

    def test_flat_decoders_report_no_offchip_traffic(self, code_d5):
        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            lambda code, stype: MWPMDecoder(code, stype),
            trials=20,
            rng=13,
        )
        assert result.tier_trials == ()
        assert result.offchip_trial_fraction == 0.0
        assert result.offchip_rounds_per_trial == 0.0


class TestCascadeResultStoreRoundTrip:
    def test_tier_fields_survive_serialization(self, code_d5):
        from repro.store.serialization import from_dict, to_dict

        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            DecoderCascade,
            trials=100,
            rng=3,
        )
        assert result.tier_names == TIERS
        restored = from_dict(to_dict(result))
        assert restored == result
        assert restored.tier_trials == result.tier_trials
        assert isinstance(restored.tier_trials, tuple)
