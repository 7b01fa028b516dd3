"""Packed-engine equivalence and allocation-discipline tests.

The bit-packed batch engine promises *bit-identity* with the per-trial
``engine="loop"`` oracle under a fixed seed — not statistical agreement.
These tests pin that promise across engines (batch, and sharded against
per-shard loop runs), decoder shapes (the Clique+MWPM cascade, a cascade
whose ready off-chip tier takes the base per-window loop, flat MWPM, and a
flat decoder through the base ``decode_batch_packed`` fallback), ragged trial
counts, chunking choices, and noise-model subclasses.  The allocation tests
pin one canonical dtype per pipeline stage and a bounded per-chunk working
set.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.decoders.base import Decoder, DecodeResult, PackedBatchDecodeResult
from repro.decoders.mwpm import MWPMDecoder
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import shard_rng
from repro.simulation.batch import run_memory_experiment_batch
from repro.simulation.memory import run_memory_experiment, trial_error_histories
from repro.simulation.scheduler import SweepScheduler, memory_point
from repro.simulation.shard import plan_shards
from repro.types import StabilizerType

from offchip_tiers import READY_TIERS, ReadyTierCascade


def _hierarchical(code, stype):
    return DecoderCascade(code, stype, tiers=("clique", "mwpm"))


def _mwpm(code, stype):
    return MWPMDecoder(code, stype)


def _assert_results_identical(left, right):
    assert left.logical_failures == right.logical_failures
    assert left.onchip_rounds == right.onchip_rounds
    assert left.total_rounds == right.total_rounds
    assert left.tier_names == right.tier_names
    assert left.tier_trials == right.tier_trials
    assert left.tier_rounds == right.tier_rounds
    assert left.decoder_name == right.decoder_name
    assert left.trials == right.trials


class TestPackedEquivalence:
    @pytest.mark.parametrize("distance,trials", [(5, 130), (7, 150)])
    @pytest.mark.parametrize("error_rate", [5e-3, 2e-2])
    @pytest.mark.parametrize(
        "factory",
        [_hierarchical, ReadyTierCascade(READY_TIERS["bitmap-hook"]), _mwpm],
        ids=["clique-mwpm", "clique-bitmap-hook", "flat-mwpm"],
    )
    def test_packed_matches_loop(self, distance, trials, error_rate, factory):
        code = get_code(distance)
        noise = PhenomenologicalNoise(error_rate)
        packed = run_memory_experiment_batch(
            code, noise, factory, trials=trials, rng=42
        )
        loop = run_memory_experiment(
            code, noise, factory, trials=trials, rng=42, engine="loop"
        )
        _assert_results_identical(packed, loop)

    @pytest.mark.parametrize("trials", [1, 63, 64, 70, 130])
    def test_ragged_trial_counts_stay_bit_identical(self, code_d5, trials):
        noise = PhenomenologicalNoise(2e-2)
        packed = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=trials, rng=7
        )
        loop = run_memory_experiment(
            code_d5, noise, _hierarchical, trials=trials, rng=7, engine="loop"
        )
        _assert_results_identical(packed, loop)

    def test_packed_chunking_preserves_the_rng_stream(self, code_d5):
        noise = PhenomenologicalNoise(1e-2)
        whole = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=100, rng=5
        )
        chunked = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=100, rng=5, chunk_trials=7
        )
        _assert_results_identical(whole, chunked)

    @pytest.mark.parametrize(
        "factory",
        [_hierarchical, ReadyTierCascade(READY_TIERS["bitmap-hook"])],
        ids=["clique-mwpm", "clique-bitmap-hook"],
    )
    def test_sharded_engine_matches_per_shard_loop_runs(self, factory):
        # Each shard rides the packed batch engine on its own
        # shard_rng(seed, index) stream; the loop oracle replays those
        # streams shard by shard.
        code = get_code(5)
        noise = PhenomenologicalNoise(1e-2)
        seed, chunk = 13, 50
        point = memory_point(
            "p", code, noise, factory, trials=130, seed=seed, chunk_trials=chunk
        )
        sharded = SweepScheduler(workers=1).run([point])["p"]
        loops = [
            run_memory_experiment(
                code, noise, factory, trials=shard_trials,
                rng=shard_rng(seed, index), engine="loop",
            )
            for index, shard_trials in enumerate(plan_shards(130, chunk))
        ]
        assert sharded.trials == sum(loop.trials for loop in loops)
        for field in ("logical_failures", "onchip_rounds", "total_rounds"):
            assert getattr(sharded, field) == sum(
                getattr(loop, field) for loop in loops
            )
        for field in ("tier_trials", "tier_rounds"):
            assert getattr(sharded, field) == tuple(
                sum(counts) for counts in zip(*(getattr(loop, field) for loop in loops))
            )
        assert sharded.tier_names == loops[0].tier_names

    def test_noise_subclass_override_falls_back_bit_identically(self, code_d5):
        # Custom physics (an overridden per-vector sampler) must flow through
        # the sample_history fallback + pack, keeping the packed engine on
        # the exact RNG stream the loop engine consumes.
        class BurstNoise(PhenomenologicalNoise):
            def sample_data_vector(self, code, rng):
                vector = super().sample_data_vector(code, rng)
                if vector.any():
                    vector[: code.distance] = 1
                return vector

        noise = BurstNoise(2e-2)
        packed = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=120, rng=31
        )
        loop = run_memory_experiment(
            code_d5, noise, _hierarchical, trials=120, rng=31, engine="loop"
        )
        _assert_results_identical(packed, loop)

    def test_packed_sampler_matches_packed_reference(self, code_d5):
        # The packed planes are exactly the packed sample_history and the
        # packed per-trial arrays the loop engine scatters (ragged 130).
        noise = PhenomenologicalNoise(0.05, 0.02)
        data_planes, flip_planes = noise.sample_history_packed(
            code_d5, StabilizerType.X, 130, 4, np.random.default_rng(77)
        )
        data_ref, flips_ref = noise.sample_history(
            code_d5, StabilizerType.X, 130, 4, np.random.default_rng(77)
        )
        assert np.array_equal(data_planes, bitplane.pack_trials(data_ref))
        assert np.array_equal(flip_planes, bitplane.pack_trials(flips_ref))
        loop = list(
            trial_error_histories(
                code_d5, StabilizerType.X, noise, 130, 4, np.random.default_rng(77)
            )
        )
        assert np.array_equal(
            data_planes, bitplane.pack_trials(np.stack([d for d, _ in loop]))
        )
        assert np.array_equal(
            flip_planes, bitplane.pack_trials(np.stack([f for _, f in loop]))
        )


class TestDecodeBatchPacked:
    @pytest.mark.parametrize(
        "factory",
        [_hierarchical, ReadyTierCascade(READY_TIERS["bitmap-hook"])],
        ids=["clique-mwpm", "clique-bitmap-hook"],
    )
    @pytest.mark.parametrize("density", [0.03, 0.15])
    def test_cascade_packed_decode_matches_decode_history(
        self, code_d5, factory, density
    ):
        decoder = factory(code_d5, StabilizerType.X)
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        rng = np.random.default_rng(11)
        trials = 70  # ragged last word
        batch = (rng.random((trials, 6, width)) < density).astype(np.uint8)

        packed = decoder.decode_batch_packed(bitplane.pack_trials(batch), trials)
        assert isinstance(packed, PackedBatchDecodeResult)
        assert packed.num_trials == trials
        corrections = bitplane.unpack_trials(packed.corrections, trials)
        data_index = code_d5.data_index
        tier_trials = np.zeros(decoder.num_tiers, dtype=np.int64)
        tier_rounds = np.zeros(decoder.num_tiers, dtype=np.int64)
        for trial in range(trials):
            reference = decoder.decode_history(batch[trial])
            bitmap = np.zeros(code_d5.num_data_qubits, dtype=np.uint8)
            for qubit in reference.correction:
                bitmap[data_index[qubit]] ^= 1
            assert np.array_equal(corrections[trial], bitmap)
            onchip = reference.num_rounds - reference.num_offchip_rounds
            assert packed.onchip_rounds[trial] == onchip
            assert packed.total_rounds[trial] == reference.num_rounds
            tier_trials[int(reference.num_offchip_rounds > 0)] += 1
            tier_rounds += (onchip, reference.num_offchip_rounds)
        assert np.array_equal(packed.tier_trials, tier_trials)
        assert np.array_equal(packed.tier_rounds, tier_rounds)

    def test_base_fallback_matches_per_trial_mwpm(self, code_d3):
        decoder = MWPMDecoder(code_d3, StabilizerType.X)
        width = code_d3.num_ancillas_of_type(StabilizerType.X)
        data_index = code_d3.data_index
        rng = np.random.default_rng(3)
        batch = (rng.random((25, 4, width)) < 0.2).astype(np.uint8)
        packed = decoder.decode_batch_packed(bitplane.pack_trials(batch), 25)
        corrections = bitplane.unpack_trials(packed.corrections, 25)
        for trial in range(25):
            bitmap = np.zeros(code_d3.num_data_qubits, dtype=np.uint8)
            for qubit in decoder.decode(batch[trial]).correction:
                bitmap[data_index[qubit]] ^= 1
            assert np.array_equal(corrections[trial], bitmap)

    def test_base_fallback_matches_per_trial_decode(self, code_d5):
        # A flat decoder with neither a packed path nor window hooks of its
        # own rides the base class's per-trial loop.
        decoder = READY_TIERS["decode-only"](code_d5, StabilizerType.X)
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        data_index = code_d5.data_index
        rng = np.random.default_rng(5)
        trials = 70  # ragged last word
        batch = (rng.random((trials, 5, width)) < 0.15).astype(np.uint8)
        packed = decoder.decode_batch_packed(bitplane.pack_trials(batch), trials)
        corrections = bitplane.unpack_trials(packed.corrections, trials)
        for trial in range(trials):
            bitmap = np.zeros(code_d5.num_data_qubits, dtype=np.uint8)
            for qubit in decoder.decode(batch[trial]).correction:
                bitmap[data_index[qubit]] ^= 1
            assert np.array_equal(corrections[trial], bitmap)
        assert not packed.total_rounds.any()

    def test_packed_corrections_keep_padding_bits_zero(self, code_d5):
        decoder = DecoderCascade(code_d5, StabilizerType.X, tiers=("clique", "mwpm"))
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        rng = np.random.default_rng(9)
        trials = 70
        batch = (rng.random((trials, 5, width)) < 0.15).astype(np.uint8)
        packed = decoder.decode_batch_packed(bitplane.pack_trials(batch), trials)
        mask = bitplane.trial_mask_words(trials)
        assert np.all(packed.corrections & ~mask == 0)

    def test_packed_decode_validates_input(self, code_d3):
        from repro.exceptions import SyndromeShapeError

        decoder = MWPMDecoder(code_d3, StabilizerType.X)
        with pytest.raises(ValueError):
            decoder.decode_batch_packed(np.zeros((2, 4, 1), dtype=np.uint8), 10)
        with pytest.raises(SyndromeShapeError):
            decoder.decode_batch_packed(np.zeros((2, 99, 1), dtype=np.uint64), 10)
        with pytest.raises(ValueError):
            decoder.decode_batch_packed(
                np.zeros(
                    (2, decoder.code.num_ancillas_of_type(StabilizerType.X), 3),
                    dtype=np.uint64,
                ),
                10,
            )


class _ProbeDecoder(Decoder):
    """Records exactly what dtype/layout each engine hands the decoder."""

    def __init__(self, code, stype):
        super().__init__(code, stype)
        self.seen = []

    def decode(self, detections):  # pragma: no cover - not reached
        return DecodeResult()

    def decode_batch_packed(self, detections, trials):
        planes = self._as_packed_detection_batch(detections, trials)
        self.seen.append(("packed", planes.dtype, planes.ndim))
        return PackedBatchDecodeResult(
            corrections=np.zeros(
                (self._code.num_data_qubits, bitplane.num_words(trials)),
                dtype=np.uint64,
            ),
            trials=trials,
            onchip_rounds=np.zeros(trials, dtype=np.int64),
            total_rounds=np.zeros(trials, dtype=np.int64),
        )


class TestAllocationDiscipline:
    """Satellite: one canonical dtype per stage, bounded working set."""

    def test_engine_hands_the_decoder_packed_planes(self, code_d5):
        noise = PhenomenologicalNoise(1e-2)
        probes = []

        def factory(code, stype):
            probe = _ProbeDecoder(code, stype)
            probes.append(probe)
            return probe

        run_memory_experiment_batch(code_d5, noise, factory, trials=70, rng=1)
        assert probes[0].seen == [("packed", np.dtype(np.uint64), 3)]

    def test_per_chunk_working_set_is_bounded(self):
        # entries = trials * rounds * (data + ancilla) bits flowing through
        # one chunk.  The packed pipeline holds word-packed planes plus the
        # sparse sampler's error positions, so one byte per entry catches
        # any return of a byte-per-bit tensor.
        code = get_code(7)
        noise = PhenomenologicalNoise(1e-3)
        trials, rounds = 4096, 7
        entries = trials * rounds * (
            code.num_data_qubits + code.num_ancillas_of_type(StabilizerType.X)
        )

        run_memory_experiment_batch(  # warm-up: imports, lazy tables
            code, noise, _hierarchical, trials=64, rng=0
        )
        tracemalloc.start()
        run_memory_experiment_batch(
            code, noise, _hierarchical, trials=trials, rounds=rounds,
            rng=0, chunk_trials=trials,
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= entries
