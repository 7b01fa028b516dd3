"""Engine-equivalence tests: the batched Monte-Carlo engine vs the loop oracle.

The batch engine's whole value proposition is "bit-identical results, an
order of magnitude faster", so these tests pin the bit-identical half: same
seed => identical logical-failure counts, identical on-chip round tallies,
identical per-trial corrections — across distances, error rates, decoders,
and chunking choices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.clique.decoder import CliqueDecoder
from repro.codes.rotated_surface import get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.exceptions import ConfigurationError
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.batch import (
    detection_planes,
    logical_support_bitmap,
    run_memory_experiment_batch,
)
from repro.simulation.memory import run_memory_experiment, trial_error_histories
from repro.types import StabilizerType


def _hierarchical(code, stype):
    return DecoderCascade(code, stype, tiers=("clique", "mwpm"))


def _mwpm(code, stype):
    return MWPMDecoder(code, stype)


class TestEngineEquivalence:
    @pytest.mark.parametrize("distance", [3, 5])
    @pytest.mark.parametrize("error_rate", [5e-3, 2e-2])
    @pytest.mark.parametrize(
        "factory", [_hierarchical, _mwpm], ids=["hierarchical", "mwpm"]
    )
    def test_batch_matches_loop_bit_for_bit(self, distance, error_rate, factory):
        code = get_code(distance)
        noise = PhenomenologicalNoise(error_rate)
        loop = run_memory_experiment(
            code, noise, factory, trials=150, rng=42, engine="loop"
        )
        batch = run_memory_experiment(
            code, noise, factory, trials=150, rng=42, engine="batch"
        )
        assert batch.logical_failures == loop.logical_failures
        assert batch.onchip_rounds == loop.onchip_rounds
        assert batch.total_rounds == loop.total_rounds
        assert batch.decoder_name == loop.decoder_name
        assert batch.rounds == loop.rounds

    def test_chunking_preserves_the_rng_stream(self, code_d3):
        noise = PhenomenologicalNoise(1e-2)
        whole = run_memory_experiment_batch(
            code_d3, noise, _hierarchical, trials=100, rng=5
        )
        chunked = run_memory_experiment_batch(
            code_d3, noise, _hierarchical, trials=100, rng=5, chunk_trials=7
        )
        assert chunked.logical_failures == whole.logical_failures
        assert chunked.onchip_rounds == whole.onchip_rounds

    def test_engine_is_validated(self, code_d3):
        with pytest.raises(ConfigurationError):
            run_memory_experiment(
                code_d3,
                PhenomenologicalNoise(1e-2),
                _mwpm,
                trials=10,
                engine="warp",
            )

    def test_default_engine_is_batch_and_reproducible(self, code_d3):
        noise = PhenomenologicalNoise(2e-2)
        default = run_memory_experiment(code_d3, noise, _hierarchical, trials=80, rng=9)
        loop = run_memory_experiment(
            code_d3, noise, _hierarchical, trials=80, rng=9, engine="loop"
        )
        assert default.logical_failures == loop.logical_failures


class TestDecodeBatch:
    def test_hierarchical_decode_batch_matches_decode_history(self, code_d5):
        decoder = _hierarchical(code_d5, StabilizerType.X)
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        data_index = code_d5.data_index
        rng = np.random.default_rng(11)
        for density in (0.03, 0.15):
            batch = (rng.random((60, 6, width)) < density).astype(np.uint8)
            result = decoder.decode_batch_packed(bitplane.pack_trials(batch), 60)
            corrections = bitplane.unpack_trials(result.corrections, 60)
            for trial in range(batch.shape[0]):
                reference = decoder.decode_history(batch[trial])
                bitmap = np.zeros(code_d5.num_data_qubits, dtype=np.uint8)
                for qubit in reference.correction:
                    bitmap[data_index[qubit]] ^= 1
                assert np.array_equal(corrections[trial], bitmap)
                assert result.onchip_rounds[trial] == (
                    reference.num_rounds - reference.num_offchip_rounds
                )
                assert result.total_rounds[trial] == reference.num_rounds

    def test_base_packed_fallback_matches_per_trial_decode(self, code_d3):
        decoder = MWPMDecoder(code_d3, StabilizerType.X)
        width = code_d3.num_ancillas_of_type(StabilizerType.X)
        data_index = code_d3.data_index
        rng = np.random.default_rng(3)
        batch = (rng.random((25, 4, width)) < 0.2).astype(np.uint8)
        result = decoder.decode_batch_packed(bitplane.pack_trials(batch), 25)
        assert result.num_trials == 25
        corrections = bitplane.unpack_trials(result.corrections, 25)
        for trial in range(25):
            reference = decoder.decode(batch[trial])
            bitmap = np.zeros(code_d3.num_data_qubits, dtype=np.uint8)
            for qubit in reference.correction:
                bitmap[data_index[qubit]] ^= 1
            assert np.array_equal(corrections[trial], bitmap)
        # MWPM does not track decode locations.
        assert not result.onchip_rounds.any()
        assert not result.total_rounds.any()

    def test_base_packed_fallback_decodes_a_one_trial_batch(self, code_d3):
        decoder = MWPMDecoder(code_d3, StabilizerType.X)
        width = code_d3.num_ancillas_of_type(StabilizerType.X)
        history = np.zeros((1, 2, width), dtype=np.uint8)
        result = decoder.decode_batch_packed(bitplane.pack_trials(history), 1)
        assert result.num_trials == 1
        assert not result.corrections.any()

    def test_base_packed_fallback_rejects_wrong_width(self, code_d3):
        from repro.exceptions import SyndromeShapeError

        decoder = MWPMDecoder(code_d3, StabilizerType.X)
        with pytest.raises(SyndromeShapeError):
            decoder.decode_batch_packed(np.zeros((3, 99, 1), dtype=np.uint64), 2)


class TestCorrectionBitmap:
    def test_matches_decide_on_trivial_signatures(self, code_d5):
        decoder = CliqueDecoder(code_d5, StabilizerType.X)
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        data_index = code_d5.data_index
        rng = np.random.default_rng(21)
        signatures = (rng.random((300, width)) < 0.12).astype(np.uint8)
        trivial = decoder.is_trivial_batch(signatures)
        assert trivial.any(), "sanity: some sampled signatures must be trivial"
        bitmaps = decoder.correction_bitmap(signatures[trivial])
        for row, signature in zip(bitmaps, signatures[trivial]):
            decision = decoder.decide(signature)
            assert decision.is_trivial
            expected = np.zeros(code_d5.num_data_qubits, dtype=np.uint8)
            for qubit in decision.correction:
                expected[data_index[qubit]] = 1
            assert np.array_equal(row, expected)


class TestDetectionIdentity:
    """``det[r] = H·e[r] ⊕ f[r] ⊕ f[r−1]`` and ``det[R] = f[R−1]`` must equal
    the differenced observed syndromes of the accumulated errors."""

    @staticmethod
    def _by_accumulation(packed_check, data_planes, flip_planes):
        accumulated = np.bitwise_xor.accumulate(data_planes, axis=0)
        true_syndromes = packed_check.syndromes(accumulated)
        observed = np.concatenate(
            [true_syndromes ^ flip_planes, true_syndromes[-1:]], axis=0
        )
        detections = observed.copy()
        detections[1:] ^= observed[:-1]
        return detections

    @pytest.mark.parametrize("rounds", [1, 2, 5])
    @pytest.mark.parametrize("trials", [1, 63, 65, 130])
    @pytest.mark.parametrize("distance", [3, 5])
    def test_fresh_error_identity_equals_the_accumulate_construction(
        self, distance, trials, rounds
    ):
        code = get_code(distance)
        stype = StabilizerType.Z if distance == 5 else StabilizerType.X
        rng = np.random.default_rng(distance * 1000 + trials * 10 + rounds)
        data = (rng.random((trials, rounds, code.num_data_qubits)) < 0.2).astype(np.uint8)
        flips = (
            rng.random((trials, rounds, code.num_ancillas_of_type(stype))) < 0.2
        ).astype(np.uint8)
        data_planes, flip_planes = bitplane.pack_trials(data), bitplane.pack_trials(flips)
        check = bitplane.get_packed_parity_check(distance, stype)
        detections = detection_planes(check, data_planes, flip_planes)
        assert detections.shape == (rounds + 1,) + flip_planes.shape[1:]
        assert np.array_equal(
            detections, self._by_accumulation(check, data_planes, flip_planes)
        )
        # The residual is the XOR of every round's fresh errors.
        assert np.array_equal(
            np.bitwise_xor.reduce(data_planes, axis=0),
            np.bitwise_xor.accumulate(data_planes, axis=0)[-1],
        )
        padding = ~bitplane.trial_mask_words(trials)
        assert not (detections & padding).any()


class TestBatchedNoiseSampling:
    def test_sample_history_is_stream_compatible_with_loop(self, code_d3):
        # sample_history, the packed sampler and the loop engine's per-trial
        # scatter are one stream: the same 2048-trial blocks, the same errors.
        noise = PhenomenologicalNoise(0.05, 0.02)
        data, flips = noise.sample_history(
            code_d3, StabilizerType.X, 70, 3, np.random.default_rng(77)
        )
        assert data.shape == (70, 3, code_d3.num_data_qubits)
        assert flips.shape == (70, 3, code_d3.num_ancillas_of_type(StabilizerType.X))
        assert data.any() and flips.any()
        loop = list(
            trial_error_histories(
                code_d3, StabilizerType.X, noise, 70, 3, np.random.default_rng(77)
            )
        )
        assert len(loop) == 70
        for trial, (expected_data, expected_flips) in enumerate(loop):
            assert np.array_equal(data[trial], expected_data)
            assert np.array_equal(flips[trial], expected_flips)

    def test_sample_history_honours_overridden_vector_samplers(self, code_d3):
        # A subclass customising per-vector sampling must keep the engines
        # bit-identical: sample_history falls back to round-by-round calls.
        class BurstNoise(PhenomenologicalNoise):
            def sample_data_vector(self, code, rng):
                vector = super().sample_data_vector(code, rng)
                if vector.any():
                    vector[: code.distance] = 1  # correlated burst
                return vector

        noise = BurstNoise(2e-2)
        loop = run_memory_experiment(
            code_d3, noise, _hierarchical, trials=120, rng=31, engine="loop"
        )
        batch = run_memory_experiment(
            code_d3, noise, _hierarchical, trials=120, rng=31, engine="batch"
        )
        assert batch.logical_failures == loop.logical_failures
        assert batch.onchip_rounds == loop.onchip_rounds

    def test_data_matrix_sampler_matches_vector_sampler(self, code_d3):
        noise = PhenomenologicalNoise(0.1)
        matrix = noise.sample_data_matrix(code_d3, 5, np.random.default_rng(8))
        loop_rng = np.random.default_rng(8)
        for row in matrix:
            assert np.array_equal(row, noise.sample_data_vector(code_d3, loop_rng))


class TestLogicalSupportBitmap:
    def test_bitmap_agrees_with_is_logical_error(self, code_d3):
        bitmap = logical_support_bitmap(code_d3, StabilizerType.X)
        assert bitmap.sum() == code_d3.distance
        rng = np.random.default_rng(13)
        data_qubits = code_d3.data_qubits
        for _ in range(20):
            residual = (rng.random(code_d3.num_data_qubits) < 0.3).astype(np.uint8)
            residual_set = {
                data_qubits[i] for i in np.flatnonzero(residual)
            }
            expected = code_d3.is_logical_error(residual_set, StabilizerType.X)
            assert bool((residual.astype(np.int64) @ bitmap) & 1) == expected
