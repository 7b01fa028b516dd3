"""Tests for the N-tier decoder cascade (Clique -> ... -> final matcher).

Covers the tier contract (escalation masks, construction validation), the
bit-identity of the packed batch cascade path against the per-trial
``decode_history`` reference, and — the refactor's load-bearing guarantee —
the two-tier cascade's bit-identity with the *pre-refactor* two-tier
hierarchy under fixed seeds on all three Monte-Carlo engines, pinned against
frozen seeded outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.clique.decoder import CliqueDecoder
from repro.codes.rotated_surface import get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.registry import resolve_tier_spec, tier_decoder_names
from repro.decoders.union_find import ClusteringDecoder
from repro.exceptions import ConfigurationError
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.memory import run_memory_experiment
from repro.types import StabilizerType

THREE_TIER = ("clique", "union_find", "mwpm")


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


def _decode_packed(cascade, batch):
    """Run an unpacked ``(trials, rounds, ancillas)`` batch through the
    production packed path; corrections come back unpacked."""
    trials = batch.shape[0]
    result = cascade.decode_batch_packed(bitplane.pack_trials(batch), trials)
    return result, bitplane.unpack_trials(result.corrections, trials)


class TestTierSpecResolution:
    def test_comma_string_and_tuple_agree(self):
        assert resolve_tier_spec("clique,union_find,mwpm") == THREE_TIER
        assert resolve_tier_spec(THREE_TIER) == THREE_TIER

    def test_whitespace_is_tolerated(self):
        assert resolve_tier_spec("clique, union_find , mwpm") == THREE_TIER

    def test_unknown_tier_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_tier_spec("clique,blossom")
        message = str(excinfo.value)
        for name in tier_decoder_names():
            assert name in message

    def test_must_start_with_clique(self):
        with pytest.raises(ConfigurationError, match="clique"):
            resolve_tier_spec("union_find,mwpm")

    def test_non_escalating_mid_tier_rejected_eagerly(self):
        # The eager-validation guarantee: a decoder with no escalation path
        # in an intermediate slot fails at spec time, before any sweep work.
        with pytest.raises(ConfigurationError, match="mid-cascade"):
            resolve_tier_spec("clique,mwpm,union_find")
        assert resolve_tier_spec("clique,union_find,mwpm") == THREE_TIER

    def test_needs_an_offchip_tier(self):
        with pytest.raises(ConfigurationError):
            resolve_tier_spec("clique")


class TestConstruction:
    def test_string_spec_builds_three_tiers(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers="clique,union_find,mwpm")
        assert cascade.tier_names == THREE_TIER
        assert cascade.num_tiers == 3
        assert isinstance(cascade.offchip_tiers[0], ClusteringDecoder)
        assert isinstance(cascade.offchip_tiers[1], MWPMDecoder)

    def test_intermediate_union_find_gets_escalation_policy(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=THREE_TIER)
        assert cascade.offchip_tiers[0].escalation_cluster_size is not None
        # A *final* union-find tier must resolve everything it receives.
        two_tier = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", "union_find"))
        assert two_tier.offchip_tiers[0].escalation_cluster_size is None

    def test_named_tiers_share_matching_graph(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=THREE_TIER)
        assert cascade.offchip_tiers[0]._graph is cascade.offchip_tiers[1]._graph

    def test_non_escalating_mid_tier_is_rejected(self, code_d5):
        # MWPM has no escalation path, so it can only sit last.
        with pytest.raises(ConfigurationError, match="escalate"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", "mwpm", "union_find"))

    def test_instance_tiers_are_accepted(self, code_d5):
        mid = ClusteringDecoder(code_d5, StabilizerType.X, escalation_cluster_size=1)
        final = MWPMDecoder(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", mid, final))
        assert cascade.offchip_tiers == (mid, final)
        assert cascade.tier_names[0] == "clique"

    def test_clique_instance_front_tier(self, code_d5):
        front = CliqueDecoder(code_d5, StabilizerType.X)
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=(front, "mwpm"))
        assert cascade.clique is front

    def test_bad_front_tier_is_rejected(self, code_d5):
        with pytest.raises(ConfigurationError, match="first cascade tier"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("mwpm", "union_find"))

    def test_default_is_the_two_tier_clique_mwpm_hierarchy(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X)
        assert cascade.tier_names == ("clique", "mwpm")
        assert isinstance(cascade.offchip_tiers[0], MWPMDecoder)
        assert cascade.measurement_rounds == 2


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

    def test_intermediate_tier_mismatch_is_rejected(self, code_d5):
        wrong = ClusteringDecoder(
            code_d5, StabilizerType.Z, escalation_cluster_size=2
        )
        with pytest.raises(ConfigurationError, match="position 1"):
            DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", wrong, "mwpm"))

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
        with pytest.raises(ConfigurationError, match="Z stabilizers"):
            run_memory_experiment(
                code_d5,
                PhenomenologicalNoise(2e-2),
                _OtherSpeciesFinalTier(),
                trials=50,
                rng=1,
                engine=engine,
                workers=1 if engine == "sharded" else None,
            )

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
        assert cascade.offchip_tiers == (final,)


class TestEscalationMask:
    def test_small_clusters_resolve_large_escalate(self, code_d5):
        decoder = ClusteringDecoder(
            code_d5, StabilizerType.X, escalation_cluster_size=2
        )
        # One isolated event: a single boundary-matched cluster, resolved here.
        bitmap, escalated = decoder.decode_events_tiered(
            np.array([0]), np.array([0])
        )
        assert escalated.size == 0
        assert bitmap is not None
        # A tight same-ancilla triple grows into one 3-event cluster whose
        # size exceeds the threshold: all three members escalate, by index.
        bitmap, escalated = decoder.decode_events_tiered(
            np.array([0, 1, 2]), np.array([0, 0, 0])
        )
        assert escalated.tolist() == [0, 1, 2]
        assert not bitmap.any()

    def test_partial_resolution_escalates_only_oversized_cluster(self, code_d5):
        decoder = ClusteringDecoder(
            code_d5, StabilizerType.X, escalation_cluster_size=2
        )
        # A far-away isolated event plus a tight same-ancilla triple: the
        # singleton cluster resolves in place while only the triple's three
        # member positions escalate.
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        rounds = np.array([0, 0, 1, 2])
        ancillas = np.array([width - 1, 0, 0, 0])
        bitmap, escalated = decoder.decode_events_tiered(rounds, ancillas)
        assert escalated.tolist() == [1, 2, 3]
        assert escalated.dtype == np.int64
        # The resolved singleton contributed a non-trivial partial correction.
        lone, lone_escalated = decoder.decode_events_tiered(
            np.array([0]), np.array([width - 1])
        )
        assert lone_escalated.size == 0
        assert np.array_equal(bitmap, lone)

    def test_empty_event_list_never_escalates(self, code_d5):
        decoder = ClusteringDecoder(
            code_d5, StabilizerType.X, escalation_cluster_size=1
        )
        bitmap, escalated = decoder.decode_events_tiered(np.array([]), np.array([]))
        assert escalated.size == 0
        assert not bitmap.any()

    def test_disabled_policy_resolves_everything(self, code_d5):
        decoder = ClusteringDecoder(code_d5, StabilizerType.X)
        bitmap, escalated = decoder.decode_events_tiered(
            np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0])
        )
        assert escalated.size == 0
        assert np.array_equal(
            bitmap,
            decoder.decode_events_bitmap(np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0])),
        )

    def test_invalid_threshold_is_rejected(self, code_d5):
        with pytest.raises(ConfigurationError):
            ClusteringDecoder(code_d5, StabilizerType.X, escalation_cluster_size=0)


def _assert_packed_matches_decode_history(cascade, batch):
    """Trial by trial, the packed batch result must equal ``decode_history``:
    corrections, on-chip rounds, the deepest tier reached, and the rounds
    shipped into every off-chip tier."""
    code = cascade.code
    data_index = code.data_index
    result, corrections = _decode_packed(cascade, batch)
    tier_trials = np.zeros(cascade.num_tiers, dtype=np.int64)
    tier_rounds = np.zeros(cascade.num_tiers, dtype=np.int64)
    for trial in range(batch.shape[0]):
        reference = cascade.decode_history(batch[trial])
        bitmap = np.zeros(code.num_data_qubits, dtype=np.uint8)
        for qubit in reference.correction:
            bitmap[data_index[qubit]] ^= 1
        assert np.array_equal(corrections[trial], bitmap)
        onchip = reference.num_rounds - reference.num_offchip_rounds
        assert result.onchip_rounds[trial] == onchip
        assert result.total_rounds[trial] == reference.num_rounds
        tier_trials[reference.handled_tier] += 1
        tier_rounds[0] += onchip
        for tier, count in enumerate(reference.tier_shipped_rounds, start=1):
            tier_rounds[tier] += count
    assert np.array_equal(result.tier_trials, tier_trials)
    assert np.array_equal(result.tier_rounds, tier_rounds)
    assert int(result.tier_trials.sum()) == batch.shape[0]


class TestBatchedCascadeBitIdentity:
    """The packed batch cascade path must stay bit-identical to the
    per-trial decode_history reference — including which tier resolves each
    trial and the rounds shipped into each tier."""

    @pytest.mark.parametrize("distance", [5, 7])
    def test_three_tier_decode_batch_matches_decode_history(self, distance):
        code = get_code(distance)
        cascade = DecoderCascade(code, StabilizerType.X, tiers=THREE_TIER)
        rng = np.random.default_rng(37)
        # Densities straddle the triage point so plenty of trials exercise
        # every tier boundary.
        for density in (0.05, 0.18):
            batch = (rng.random((40, distance + 1, _width(code))) < density).astype(
                np.uint8
            )
            _assert_packed_matches_decode_history(cascade, batch)

    @pytest.mark.parametrize("distance", [5, 7])
    @pytest.mark.parametrize("final", ["mwpm", "union_find"])
    def test_two_tier_decode_batch_matches_decode_history(self, distance, final):
        code = get_code(distance)
        cascade = DecoderCascade(code, StabilizerType.X, tiers=("clique", final))
        rng = np.random.default_rng(29)
        for density in (0.05, 0.18):
            batch = (rng.random((40, distance + 1, _width(code))) < density).astype(
                np.uint8
            )
            _assert_packed_matches_decode_history(cascade, batch)

    def test_final_tier_without_bitmap_hook_still_matches(self, code_d5):
        # A final tier that only implements decode() exercises the per-trial
        # sub-mask path inside _cascade_trial.
        class PlainMWPM(MWPMDecoder):
            decode_events_bitmap = None  # hide the batched hook

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

    def test_generic_decode_batch_matches_decode_history(self, code_d5):
        # With no unpacked fast path of its own, the cascade's decode_batch
        # is the base per-trial loop over decode(); it must still report the
        # same corrections and round split as decode_history.
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=THREE_TIER)
        rng = np.random.default_rng(47)
        batch = (rng.random((20, 6, _width(code_d5))) < 0.15).astype(np.uint8)
        result = cascade.decode_batch(batch)
        _, packed_corrections = _decode_packed(cascade, batch)
        assert np.array_equal(result.corrections, packed_corrections)
        for trial in range(batch.shape[0]):
            reference = cascade.decode_history(batch[trial])
            assert result.onchip_rounds[trial] == (
                reference.num_rounds - reference.num_offchip_rounds
            )
            assert result.total_rounds[trial] == reference.num_rounds

    def test_tier_rounds_accounting(self, code_d5):
        cascade = DecoderCascade(code_d5, StabilizerType.X, tiers=THREE_TIER)
        rng = np.random.default_rng(43)
        batch = (rng.random((40, 6, _width(code_d5))) < 0.15).astype(np.uint8)
        result, _ = _decode_packed(cascade, batch)
        total_rounds = int(result.total_rounds.sum())
        onchip_rounds = int(result.onchip_rounds.sum())
        assert result.tier_rounds[0] == onchip_rounds
        assert result.tier_rounds[1] == total_rounds - onchip_rounds
        # Bandwidth can only shrink down the cascade.
        assert result.tier_rounds[2] <= result.tier_rounds[1]


#: Frozen seeded outputs captured from the pre-refactor two-tier hierarchy
#: implementation (commit 645e6b2) — trials=300,
#: p=2e-2, seed=1234, rounds=distance; sharded at workers=1 with the default
#: chunk.  The cascade refactor must reproduce every number bit for bit.
PRE_REFACTOR_SEEDED = {
    # (fallback, distance, engine): (logical_failures, onchip_rounds, total_rounds)
    ("mwpm", 3, "loop"): (13, 1199, 1200),
    ("mwpm", 3, "batch"): (13, 1199, 1200),
    ("mwpm", 3, "sharded"): (12, 1199, 1200),
    ("mwpm", 5, "loop"): (10, 1668, 1800),
    ("mwpm", 5, "batch"): (10, 1668, 1800),
    ("mwpm", 5, "sharded"): (22, 1649, 1800),
    ("union_find", 3, "loop"): (13, 1199, 1200),
    ("union_find", 3, "batch"): (13, 1199, 1200),
    ("union_find", 3, "sharded"): (12, 1199, 1200),
    ("union_find", 5, "loop"): (15, 1668, 1800),
    ("union_find", 5, "batch"): (15, 1668, 1800),
    ("union_find", 5, "sharded"): (23, 1649, 1800),
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
        result = run_memory_experiment(
            get_code(distance),
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(("clique", fallback)),
            trials=300,
            rng=1234,
            engine=engine,
            workers=1 if engine == "sharded" else None,
        )
        assert (
            result.logical_failures,
            result.onchip_rounds,
            result.total_rounds,
        ) == expected


class TestCascadeAcrossEngines:
    """Three-tier cascades ride every engine with consistent tier stats."""

    def test_loop_and_batch_agree_including_tier_stats(self, code_d5):
        kwargs = dict(trials=200, rng=7)
        loop = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            engine="loop",
            **kwargs,
        )
        batch = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            engine="batch",
            **kwargs,
        )
        assert loop == batch
        assert loop.tier_names == THREE_TIER
        assert sum(loop.tier_trials) == loop.trials
        assert loop.tier_rounds[0] == loop.onchip_rounds

    def test_sharded_worker_count_never_changes_tier_stats(self, code_d5):
        kwargs = dict(trials=400, rng=11, engine="sharded")
        one = run_memory_experiment(
            code_d5, PhenomenologicalNoise(2e-2), _CascadeFactory(THREE_TIER),
            workers=1, **kwargs,
        )
        four = run_memory_experiment(
            code_d5, PhenomenologicalNoise(2e-2), _CascadeFactory(THREE_TIER),
            workers=4, **kwargs,
        )
        assert one == four
        assert sum(one.tier_trials) == one.trials

    def test_escalation_rates_decrease_down_the_cascade(self, code_d5):
        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            trials=300,
            rng=13,
        )
        rates = result.escalation_rates
        assert len(rates) == 2
        assert 0.0 <= rates[1] <= rates[0] <= 1.0
        assert result.tier_rounds_per_trial(2) <= result.tier_rounds_per_trial(1)


class TestCascadeResultStoreRoundTrip:
    def test_tier_fields_survive_serialization(self, code_d5):
        from repro.store.serialization import from_dict, to_dict

        result = run_memory_experiment(
            code_d5,
            PhenomenologicalNoise(2e-2),
            _CascadeFactory(THREE_TIER),
            trials=100,
            rng=3,
        )
        assert result.tier_names == THREE_TIER
        restored = from_dict(to_dict(result))
        assert restored == result
        assert restored.tier_trials == result.tier_trials
        assert isinstance(restored.tier_trials, tuple)
