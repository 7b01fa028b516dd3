"""Tests for the memory (lifetime) experiment harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique.cascade import DecoderCascade
from repro.decoders.mwpm import MWPMDecoder
from repro.exceptions import ConfigurationError
from repro.noise.models import CodeCapacityNoise, PhenomenologicalNoise
from repro.simulation.memory import (
    MemoryExperimentResult,
    run_memory_experiment,
    run_memory_trial,
    trial_error_histories,
)
from repro.types import StabilizerType


def _mwpm(code, stype):
    return MWPMDecoder(code, stype)


def _hierarchical(code, stype):
    return DecoderCascade(code, stype, tiers=("clique", "mwpm"))


class TestRunMemoryTrial:
    def test_zero_noise_never_fails(self, code_d3, rng):
        noise = PhenomenologicalNoise(0.0)
        decoder = MWPMDecoder(code_d3, StabilizerType.X)
        ((data_errors, flips),) = trial_error_histories(
            code_d3, StabilizerType.X, noise, 1, 3, rng
        )
        assert not data_errors.any() and not flips.any()
        failed, metadata = run_memory_trial(
            code_d3, StabilizerType.X, decoder, data_errors, flips
        )
        assert not failed
        assert metadata["num_events"] == 0

    def test_hierarchical_metadata_includes_round_split(self, code_d3, rng):
        noise = PhenomenologicalNoise(0.02)
        decoder = _hierarchical(code_d3, StabilizerType.X)
        ((data_errors, flips),) = trial_error_histories(
            code_d3, StabilizerType.X, noise, 1, 3, rng
        )
        _failed, metadata = run_memory_trial(
            code_d3, StabilizerType.X, decoder, data_errors, flips
        )
        assert "num_offchip_rounds" in metadata
        assert metadata["num_rounds"] == 4  # three noisy rounds + final perfect round


class TestRunMemoryExperiment:
    def test_rejects_bad_arguments(self, code_d3):
        noise = PhenomenologicalNoise(0.01)
        with pytest.raises(ConfigurationError):
            run_memory_experiment(code_d3, noise, _mwpm, trials=0)
        with pytest.raises(ConfigurationError):
            run_memory_experiment(code_d3, noise, _mwpm, trials=10, rounds=0)

    def test_default_rounds_equal_distance(self, code_d3):
        result = run_memory_experiment(
            code_d3, PhenomenologicalNoise(0.01), _mwpm, trials=5, rng=1
        )
        assert result.rounds == 3

    def test_zero_noise_has_zero_logical_error_rate(self, code_d3):
        result = run_memory_experiment(
            code_d3, PhenomenologicalNoise(0.0), _mwpm, trials=50, rng=2
        )
        assert result.logical_error_rate == 0.0
        assert result.confidence_interval[0] == 0.0

    def test_result_counts_are_consistent(self, code_d3):
        result = run_memory_experiment(
            code_d3, PhenomenologicalNoise(0.03), _mwpm, trials=200, rng=3
        )
        assert 0 <= result.logical_failures <= result.trials
        low, high = result.confidence_interval
        assert low <= result.logical_error_rate <= high

    def test_reproducible_with_seed(self, code_d3):
        noise = PhenomenologicalNoise(0.02)
        first = run_memory_experiment(code_d3, noise, _mwpm, trials=100, rng=4)
        second = run_memory_experiment(code_d3, noise, _mwpm, trials=100, rng=4)
        assert first.logical_failures == second.logical_failures

    def test_decoder_name_defaults_to_class_name(self, code_d3):
        result = run_memory_experiment(
            code_d3, PhenomenologicalNoise(0.01), _mwpm, trials=5, rng=5
        )
        assert result.decoder_name == "MWPMDecoder"

    def test_hierarchical_tracks_onchip_fraction(self, code_d3):
        result = run_memory_experiment(
            code_d3, PhenomenologicalNoise(5e-3), _hierarchical, trials=50, rng=6
        )
        assert result.total_rounds == 50 * 4
        assert 0.0 <= result.onchip_round_fraction <= 1.0
        assert result.onchip_round_fraction > 0.8

    def test_code_capacity_single_round(self, code_d3):
        result = run_memory_experiment(
            code_d3, CodeCapacityNoise(0.05), _mwpm, trials=100, rounds=1, rng=7
        )
        assert result.rounds == 1
        assert result.trials == 100


class TestMemoryExperimentResult:
    def test_onchip_fraction_zero_when_not_tracked(self):
        result = MemoryExperimentResult(
            physical_error_rate=0.01,
            code_distance=3,
            rounds=3,
            trials=10,
            logical_failures=1,
            decoder_name="MWPM",
        )
        assert result.onchip_round_fraction == 0.0
        assert result.logical_error_rate == pytest.approx(0.1)
