"""Packed-engine equivalence and allocation-discipline tests.

The packed Monte-Carlo path promises *bit-identity* with the unpacked
reference under a fixed seed — not statistical agreement.  These tests pin
that promise across engines (batch, sharded), decoder shapes (two- and
three-tier cascades, flat MWPM through the base ``decode_batch_packed``
fallback), ragged trial counts, chunking choices, and noise-model
subclasses.  The allocation tests pin the satellite dtype-discipline work:
one canonical dtype per pipeline stage and a bounded per-chunk working set.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.clique.hierarchical import HierarchicalDecoder
from repro.codes.rotated_surface import get_code
from repro.decoders.base import BatchDecodeResult, Decoder, DecodeResult, PackedBatchDecodeResult
from repro.decoders.mwpm import MWPMDecoder
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.batch import run_memory_experiment_batch
from repro.simulation.memory import run_memory_experiment
from repro.types import StabilizerType


def _hierarchical(code, stype):
    return HierarchicalDecoder(code, stype)


def _mwpm(code, stype):
    return MWPMDecoder(code, stype)


class _CascadeFactory:
    """Picklable cascade factory (sharded-engine tests fork workers)."""

    def __init__(self, tiers):
        self.tiers = tuple(tiers)

    def __call__(self, code, stype):
        return DecoderCascade(code, stype, tiers=self.tiers)


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
        [_hierarchical, _CascadeFactory(("clique", "union_find", "mwpm")), _mwpm],
        ids=["two-tier", "three-tier", "flat-mwpm"],
    )
    def test_packed_matches_unpacked_and_loop(
        self, distance, trials, error_rate, factory
    ):
        code = get_code(distance)
        noise = PhenomenologicalNoise(error_rate)
        packed = run_memory_experiment_batch(
            code, noise, factory, trials=trials, rng=42, packed=True
        )
        unpacked = run_memory_experiment_batch(
            code, noise, factory, trials=trials, rng=42, packed=False
        )
        _assert_results_identical(packed, unpacked)
        loop = run_memory_experiment(
            code, noise, factory, trials=trials, rng=42, engine="loop"
        )
        _assert_results_identical(packed, loop)

    @pytest.mark.parametrize("trials", [1, 63, 64, 70, 130])
    def test_ragged_trial_counts_stay_bit_identical(self, code_d5, trials):
        noise = PhenomenologicalNoise(2e-2)
        packed = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=trials, rng=7, packed=True
        )
        unpacked = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=trials, rng=7, packed=False
        )
        _assert_results_identical(packed, unpacked)

    def test_packed_chunking_preserves_the_rng_stream(self, code_d5):
        noise = PhenomenologicalNoise(1e-2)
        whole = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=100, rng=5, packed=True
        )
        chunked = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=100, rng=5, packed=True,
            chunk_trials=7,
        )
        _assert_results_identical(whole, chunked)

    @pytest.mark.parametrize(
        "factory",
        [_CascadeFactory(("clique", "mwpm")),
         _CascadeFactory(("clique", "union_find", "mwpm"))],
        ids=["two-tier", "three-tier"],
    )
    def test_sharded_engine_is_bit_identical_packed_vs_unpacked(self, factory):
        code = get_code(5)
        noise = PhenomenologicalNoise(1e-2)
        packed = run_memory_experiment(
            code, noise, factory, trials=130, rng=13, engine="sharded",
            chunk_trials=50, workers=1, packed=True,
        )
        unpacked = run_memory_experiment(
            code, noise, factory, trials=130, rng=13, engine="sharded",
            chunk_trials=50, workers=1, packed=False,
        )
        _assert_results_identical(packed, unpacked)

    def test_memory_experiment_front_door_forwards_packed(self, code_d5):
        noise = PhenomenologicalNoise(2e-2)
        default = run_memory_experiment(code_d5, noise, _hierarchical, trials=90, rng=3)
        escape = run_memory_experiment(
            code_d5, noise, _hierarchical, trials=90, rng=3, packed=False
        )
        _assert_results_identical(default, escape)

    def test_noise_subclass_override_falls_back_bit_identically(self, code_d5):
        # Custom physics (an overridden per-vector sampler) must flow through
        # the sample_history fallback + pack, keeping the packed engine on
        # the exact RNG stream the unpacked engine consumes.
        class BurstNoise(PhenomenologicalNoise):
            def sample_data_vector(self, code, rng):
                vector = super().sample_data_vector(code, rng)
                if vector.any():
                    vector[: code.distance] = 1
                return vector

        noise = BurstNoise(2e-2)
        packed = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=120, rng=31, packed=True
        )
        unpacked = run_memory_experiment_batch(
            code_d5, noise, _hierarchical, trials=120, rng=31, packed=False
        )
        _assert_results_identical(packed, unpacked)

    def test_packed_sampler_matches_packed_reference(self, code_d5):
        noise = PhenomenologicalNoise(0.05, 0.02)
        data_planes, flip_planes = noise.sample_history_packed(
            code_d5, StabilizerType.X, 130, 4, np.random.default_rng(77)
        )
        data_ref, flips_ref = noise.sample_history(
            code_d5, StabilizerType.X, 130, 4, np.random.default_rng(77)
        )
        assert np.array_equal(data_planes, bitplane.pack_trials(data_ref))
        assert np.array_equal(flip_planes, bitplane.pack_trials(flips_ref))


class TestDecodeBatchPacked:
    @pytest.mark.parametrize(
        "tiers", [("clique", "mwpm"), ("clique", "union_find", "mwpm")],
        ids=["two-tier", "three-tier"],
    )
    @pytest.mark.parametrize("density", [0.03, 0.15])
    def test_cascade_packed_decode_matches_unpacked(self, code_d5, tiers, density):
        decoder = DecoderCascade(code_d5, StabilizerType.X, tiers=tiers)
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        rng = np.random.default_rng(11)
        trials = 70  # ragged last word
        batch = (rng.random((trials, 6, width)) < density).astype(np.uint8)

        reference = decoder.decode_batch(batch)
        packed = decoder.decode_batch_packed(bitplane.pack_trials(batch), trials)
        assert isinstance(packed, PackedBatchDecodeResult)
        assert packed.num_trials == trials
        assert np.array_equal(
            bitplane.unpack_trials(packed.corrections, trials),
            reference.corrections,
        )
        assert np.array_equal(packed.onchip_rounds, reference.onchip_rounds)
        assert np.array_equal(packed.total_rounds, reference.total_rounds)
        assert np.array_equal(packed.tier_trials, reference.tier_trials)
        assert np.array_equal(packed.tier_rounds, reference.tier_rounds)

    def test_base_fallback_matches_decode_batch(self, code_d3):
        decoder = MWPMDecoder(code_d3, StabilizerType.X)
        width = code_d3.num_ancillas_of_type(StabilizerType.X)
        rng = np.random.default_rng(3)
        batch = (rng.random((25, 4, width)) < 0.2).astype(np.uint8)
        reference = decoder.decode_batch(batch)
        packed = decoder.decode_batch_packed(bitplane.pack_trials(batch), 25)
        assert np.array_equal(
            bitplane.unpack_trials(packed.corrections, 25), reference.corrections
        )

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

    def decode_batch(self, histories):
        self.seen.append(("unpacked", histories.dtype, histories.ndim))
        trials = histories.shape[0]
        return BatchDecodeResult(
            corrections=np.zeros((trials, self._code.num_data_qubits), dtype=np.uint8),
            onchip_rounds=np.zeros(trials, dtype=np.int64),
            total_rounds=np.zeros(trials, dtype=np.int64),
        )

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

    def test_engines_hand_the_decoder_canonical_dtypes(self, code_d5):
        noise = PhenomenologicalNoise(1e-2)
        probes = []

        def factory(code, stype):
            probe = _ProbeDecoder(code, stype)
            probes.append(probe)
            return probe

        run_memory_experiment_batch(
            code_d5, noise, factory, trials=70, rng=1, packed=False
        )
        run_memory_experiment_batch(
            code_d5, noise, factory, trials=70, rng=1, packed=True
        )
        assert probes[0].seen == [("unpacked", np.dtype(np.uint8), 3)]
        assert probes[1].seen == [("packed", np.dtype(np.uint64), 3)]

    def test_per_chunk_working_set_is_bounded(self):
        # entries = trials * rounds * (data + ancilla) bits flowing through
        # one chunk.  The dtype-disciplined unpacked pipeline peaks under
        # 12 bytes/entry (the pre-cleanup engine churned ~20 via redundant
        # int64/astype copies); the packed pipeline holds word-packed planes
        # plus the 64-trial float64 sampling tile, well under a quarter of
        # the unpacked peak.
        code = get_code(7)
        noise = PhenomenologicalNoise(1e-3)
        trials, rounds = 4096, 7
        entries = trials * rounds * (
            code.num_data_qubits + code.num_ancillas_of_type(StabilizerType.X)
        )

        def _peak(packed):
            run_memory_experiment_batch(  # warm-up: imports, lazy tables
                code, noise, _hierarchical, trials=64, rng=0, packed=packed
            )
            tracemalloc.start()
            run_memory_experiment_batch(
                code, noise, _hierarchical, trials=trials, rounds=rounds,
                rng=0, chunk_trials=trials, packed=packed,
            )
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        unpacked_peak = _peak(packed=False)
        packed_peak = _peak(packed=True)
        assert unpacked_peak <= 12 * entries
        assert packed_peak <= unpacked_peak / 4
