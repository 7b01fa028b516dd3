"""Tests for the two-tier decoder cascade (Clique -> one off-chip decoder).

Covers the tier-spec grammar and construction validation, the bit-identity
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
from repro.decoders.registry import resolve_tier_spec, tier_decoder_names
from repro.decoders.union_find import ClusteringDecoder
from repro.exceptions import ConfigurationError
from repro.experiments.fig14 import compare_fallbacks
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.memory import run_memory_experiment
from repro.simulation.scheduler import SweepScheduler, memory_point
from repro.types import DecodeLocation, StabilizerType

UF_TIERS = ("clique", "union_find")


def _width(code):
    return code.num_ancillas_of_type(StabilizerType.X)


class _CascadeFactory:
    """Picklable factory for sharded-engine tests."""

    def __init__(self, tiers):
        self.tiers = tuple(tiers)

    def __call__(self, code, stype):
        return DecoderCascade(code, stype, tiers=self.tiers)


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


class TestTierSpecResolution:
    def test_comma_string_and_tuple_agree(self):
        assert resolve_tier_spec("clique,union_find") == UF_TIERS
        assert resolve_tier_spec(UF_TIERS) == UF_TIERS

    def test_whitespace_is_tolerated(self):
        assert resolve_tier_spec("clique, union_find ") == UF_TIERS

    def test_unknown_tier_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_tier_spec("clique,blossom")
        message = str(excinfo.value)
        for name in tier_decoder_names():
            assert name in message

    def test_must_start_with_clique(self):
        with pytest.raises(ConfigurationError, match="clique"):
            resolve_tier_spec("union_find,mwpm")

    def test_needs_an_offchip_tier(self):
        with pytest.raises(ConfigurationError, match="exactly two tiers"):
            resolve_tier_spec("clique")

    def test_three_tiers_are_rejected(self):
        with pytest.raises(ConfigurationError, match="exactly two tiers"):
            resolve_tier_spec("clique,union_find,mwpm")


@pytest.mark.parametrize(
    "spec",
    ["clique,,mwpm", "clique", "mwpm,clique", "clique,union_find,mwpm"],
    ids=["malformed", "no-offchip-tier", "clique-not-first", "three-tiers"],
)
def test_registry_and_cascade_reject_bad_specs_alike(code_d5, spec):
    # One grammar: the cascade parses string specs through the registry, so
    # both entry points reject a bad spec with the same message.
    with pytest.raises(ConfigurationError) as from_registry:
        resolve_tier_spec(spec)
    with pytest.raises(ConfigurationError) as from_cascade:
        DecoderCascade(code_d5, StabilizerType.X, tiers=spec)
    assert str(from_cascade.value) == str(from_registry.value)


class TestConstruction:
    def test_string_spec_builds_two_tiers(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers="clique,union_find")
        assert cascade.tier_names == UF_TIERS
        assert cascade.num_tiers == 2
        assert isinstance(cascade.offchip, ClusteringDecoder)

    def test_instance_offchip_tier_is_accepted(self, code_d5):
        final = MWPMDecoder(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", final))
        assert cascade.offchip is final
        assert cascade.tier_names == ("clique", "MWPMDecoder")
        assert cascade.num_tiers == 2

    def test_three_tiers_with_instances_are_rejected(self, code_d5):
        middle = ClusteringDecoder(code_d5, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="exactly two tiers"):
            DecoderCascade(
                code_d5, StabilizerType.X, tiers=("clique", middle, "mwpm")
            )

    def test_non_decoder_offchip_tier_is_rejected(self, code_d5):
        front = CliqueDecoder(code_d5, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="off-chip cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=(front, 3))

    def test_clique_instance_front_tier(self, code_d5):
        front = CliqueDecoder(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=(front, "mwpm"))
        assert cascade.clique is front

    def test_bad_front_tier_is_rejected(self, code_d5):
        with pytest.raises(ConfigurationError, match="first cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("mwpm", "union_find"))
        final = MWPMDecoder(code_d5, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="first cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("mwpm", final))

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

    def test_clique_front_of_another_distance_is_rejected(self, code_d5, code_d7):
        wrong = CliqueDecoder(code_d7, StabilizerType.X)
        with pytest.raises(ConfigurationError, match="'clique' at position 0"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=(wrong, "mwpm"))

    def test_clique_front_of_the_other_stabilizer_type_is_rejected(self, code_d5):
        wrong = CliqueDecoder(code_d5, StabilizerType.Z)
        with pytest.raises(ConfigurationError, match="Z stabilizers"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=(wrong, "mwpm"))

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
        cascade = DecoderCascade(
            code_d5,
            StabilizerType.Z,
            tiers=(CliqueDecoder(other, StabilizerType.Z), final),
        )
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
    @pytest.mark.parametrize("final", ["mwpm", "union_find"])
    def test_decode_batch_matches_decode_history(
        self, distance, final, measurement_rounds
    ):
        code = get_code(distance)
        cascade = DecoderCascade(
            code,
            StabilizerType.X,
            tiers=("clique", final),
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

    def test_offchip_tier_without_bitmap_hook_still_matches(self, code_d5):
        # An off-chip tier that only implements decode() exercises the base
        # decode_event_windows' per-window detection-mask path.
        class PlainMWPM(Decoder):
            def __init__(self, code, stype):
                super().__init__(code, stype)
                self._inner = MWPMDecoder(code, stype)

            def decode(self, detections):
                return self._inner.decode(detections)

        via_plain = DecoderCascade(
            code_d5, StabilizerType.X, tiers=("clique", PlainMWPM(code_d5, StabilizerType.X))
        )
        via_bitmap = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", "mwpm"))
        rng = np.random.default_rng(31)
        batch = (rng.random((30, 6, _width(code_d5))) < 0.15).astype(np.uint8)
        _assert_packed_matches_decode_history(via_plain, batch)
        plain, plain_corrections = _decode_packed(via_plain, batch)
        bitmap, bitmap_corrections = _decode_packed(via_bitmap, batch)
        assert np.array_equal(plain_corrections, bitmap_corrections)
        assert np.array_equal(plain.onchip_rounds, bitmap.onchip_rounds)
        assert np.array_equal(plain.tier_trials, bitmap.tier_trials)

    def test_generic_packed_fallback_matches_decode_history(self, code_d5):
        # The base per-trial loop over decode(), run on a cascade, reads the
        # round split from decode()'s metadata; it must report the same
        # corrections as the native packed path and decode_history's split.
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=UF_TIERS)
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

    @pytest.mark.parametrize("tiers", [("clique", "mwpm"), UF_TIERS])
    def test_tier_counts_are_the_triage_counts(self, code_d5, tiers):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=tiers)
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
    ("union_find", 3, "loop"): (13, 1198, 1200, (298, 2), (1198, 2)),
    ("union_find", 3, "batch"): (13, 1198, 1200, (298, 2), (1198, 2)),
    ("union_find", 3, "sharded"): (16, 1199, 1200, (299, 1), (1199, 1)),
    ("union_find", 5, "loop"): (16, 1654, 1800, (192, 108), (1654, 146)),
    ("union_find", 5, "batch"): (16, 1654, 1800, (192, 108), (1654, 146)),
    ("union_find", 5, "sharded"): (25, 1663, 1800, (199, 101), (1663, 137)),
}


class TestPreRefactorEquivalence:
    """``DecoderCascade(("clique", f))`` must be bit-identical to the
    pre-refactor two-tier hierarchy under fixed seeds on the loop, batch,
    and sharded engines."""

    @pytest.mark.parametrize("distance", [3, 5])
    @pytest.mark.parametrize("fallback", ["mwpm", "union_find"])
    @pytest.mark.parametrize("engine", ["loop", "batch", "sharded"])
    def test_two_tier_cascade_reproduces_frozen_outputs(
        self, distance, fallback, engine
    ):
        expected = PRE_REFACTOR_SEEDED[(fallback, distance, engine)]
        args = (
            get_code(distance),
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(("clique", fallback)),
        )
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


#: Frozen ``compare_fallbacks()`` rows at its defaults (600 trials,
#: p=1e-2, d in {5, 7}), every row a 500-trial-shard scheduler run, re-taken
#: on the 2048-trial block sampler's noise stream (``CODE_VERSION_SALT`` v4).
#: ``trials_per_sec`` is wall-clock and excluded.
FROZEN_FALLBACK_ROWS = [
    (5, "clique,mwpm", 0.015, 0.028259922540006213, 0.98, 0.1, 0.12),
    (5, "clique,union_find", 0.011666666666666667, 0.023884309997529277, 0.98, 0.1, 0.12),
    (7, "clique,mwpm", 0.0033333333333333335, 0.012071609567610156, 0.93625, 0.3217, 0.51),
    (7, "clique,union_find", 0.013333333333333334, 0.026087675694560088, 0.93625, 0.3217, 0.51),
]


def test_compare_fallbacks_reproduces_frozen_rows():
    rows = compare_fallbacks().rows
    assert [
        (
            row["code_distance"],
            row["tiers"],
            row["logical_error_rate"],
            row["ci_high"],
            row["onchip_round_fraction"],
            row["offchip_trial_fraction"],
            row["offchip_rounds_per_trial"],
        )
        for row in rows
    ] == FROZEN_FALLBACK_ROWS
    assert all(row["physical_error_rate"] == 1e-2 for row in rows)
    assert all(row["trials"] == 600 for row in rows)


class TestCascadeAcrossEngines:
    """Both off-chip decoders ride every engine with consistent tier stats
    (the default Clique+MWPM cascade is covered by the frozen pins above)."""

    def test_loop_and_batch_agree_including_tier_stats(self, code_d5):
        kwargs = dict(trials=200, rng=7)
        loop = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(UF_TIERS),
            engine="loop",
            **kwargs,
        )
        batch = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(UF_TIERS),
            engine="batch",
            **kwargs,
        )
        assert loop == batch
        assert loop.tier_names == UF_TIERS
        assert sum(loop.tier_trials) == loop.trials
        assert loop.tier_rounds == (
            loop.onchip_rounds,
            loop.total_rounds - loop.onchip_rounds,
        )

    def test_sharded_worker_count_never_changes_tier_stats(self, code_d5):
        point = memory_point(
            "p", code_d5, PhenomenologicalNoise(2e-2), _CascadeFactory(UF_TIERS),
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
            _CascadeFactory(UF_TIERS),
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
            _CascadeFactory(UF_TIERS),
            trials=100,
            rng=3,
        )
        assert result.tier_names == UF_TIERS
        restored = from_dict(to_dict(result))
        assert restored == result
        assert restored.tier_trials == result.tier_trials
        assert isinstance(restored.tier_trials, tuple)
