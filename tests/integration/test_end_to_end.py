"""End-to-end integration tests exercising the full BTWC decode pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CliqueDecoder,
    DecoderCascade,
    MWPMDecoder,
    PhenomenologicalNoise,
    RotatedSurfaceCode,
    StabilizerType,
    run_memory_experiment,
    simulate_clique_coverage,
    simulate_signature_distribution,
)
from repro.bandwidth.allocation import provision_for_percentile
from repro.bandwidth.stalling import StallSimulator


class TestFullDecodePipeline:
    """Noise -> syndromes -> hierarchy -> correction -> logical verdict."""

    def test_hierarchy_matches_baseline_at_moderate_noise(self):
        code = RotatedSurfaceCode(5)
        noise = PhenomenologicalNoise(1e-2)
        baseline = run_memory_experiment(
            code, noise, lambda c, s: MWPMDecoder(c, s), trials=400, rng=21
        )
        hierarchy = run_memory_experiment(
            code, noise, lambda c, s: DecoderCascade(c, s), trials=400, rng=21
        )
        # Fig. 14's qualitative claim at small distance: the two curves track
        # each other; the hierarchy may not be dramatically worse.
        assert hierarchy.logical_error_rate <= baseline.logical_error_rate + 0.05
        # And the whole point of the hierarchy: most rounds stay on-chip.
        assert hierarchy.onchip_round_fraction > 0.8

    def test_signature_distribution_consistent_with_coverage(self):
        # The Clique coverage can never be lower than the fraction of cycles
        # whose ground-truth configuration is trivial minus statistical noise,
        # because Clique handles every isolated-singles configuration that
        # does not alias into an even-parity pattern.
        code = RotatedSurfaceCode(7)
        noise = PhenomenologicalNoise(5e-3)
        distribution = simulate_signature_distribution(code, noise, 20_000, rng=22)
        coverage = simulate_clique_coverage(code, noise, 20_000, rng=23)
        assert coverage.coverage >= distribution.all_zeros_fraction
        assert abs(coverage.coverage - distribution.trivial_fraction) < 0.05

    def test_coverage_feeds_bandwidth_planning_and_stalling(self):
        code = RotatedSurfaceCode(9)
        noise = PhenomenologicalNoise(1e-2)
        coverage = simulate_clique_coverage(code, noise, 10_000, rng=24)
        plan = provision_for_percentile(1000, coverage.offchip_fraction, 99.0)
        result = StallSimulator(plan, seed=25).run(2000)
        assert result.completed
        assert result.execution_time_increase < 0.25
        assert plan.bandwidth_reduction > 2.0

    def test_percentile_plan_stalls_a_program_to_completion(self):
        # Coverage -> 99th-percentile plan -> stall loop, with the stall
        # count frozen (the plan over-provisions the 13.4 mean demand).
        code = RotatedSurfaceCode(7)
        noise = PhenomenologicalNoise(1e-2)
        coverage = simulate_clique_coverage(code, noise, 5_000, rng=26)
        plan = provision_for_percentile(500, coverage.offchip_fraction, 99.0)
        assert plan.decodes_per_cycle == 22
        result = StallSimulator(plan, seed=28).run(1000)
        assert result.completed
        assert (result.program_cycles, result.stall_cycles, result.max_backlog) == (
            1000,
            13,
            6,
        )

    def test_both_error_species_decode_symmetrically(self):
        code = RotatedSurfaceCode(5)
        noise = PhenomenologicalNoise(5e-3)
        rates = {}
        for stype in StabilizerType:
            result = run_memory_experiment(
                code,
                noise,
                lambda c, s: DecoderCascade(c, s),
                trials=300,
                stype=stype,
                rng=29,
            )
            rates[stype] = result.logical_error_rate
        assert abs(rates[StabilizerType.X] - rates[StabilizerType.Z]) < 0.05


class TestCrossDecoderConsistency:
    def test_all_decoders_cancel_the_same_syndromes(self):
        code = RotatedSurfaceCode(5)
        rng = np.random.default_rng(30)
        clique = CliqueDecoder(code, StabilizerType.X)
        mwpm = MWPMDecoder(code, StabilizerType.X)
        for _ in range(50):
            error = frozenset(q for q in code.data_qubits if rng.random() < 0.03)
            syndrome = code.syndrome_of(error, StabilizerType.X)
            mwpm_residual = error ^ mwpm.decode(syndrome).correction
            assert not code.syndrome_of(mwpm_residual, StabilizerType.X).any()
            decision = clique.decide(syndrome)
            if decision.is_trivial:
                clique_residual = error ^ decision.correction
                assert not code.syndrome_of(clique_residual, StabilizerType.X).any()

    def test_hierarchical_decoder_never_leaves_detection_events_unmatched(self):
        code = RotatedSurfaceCode(5)
        noise = PhenomenologicalNoise(2e-2)
        decoder = DecoderCascade(code, StabilizerType.X)
        parity = code.parity_check(StabilizerType.X)
        rng = np.random.default_rng(31)
        mismatches = 0
        trials = 60
        for _ in range(trials):
            accumulated = np.zeros(code.num_data_qubits, dtype=np.uint8)
            rounds = []
            for _round in range(5):
                accumulated ^= noise.sample_data_vector(code, rng)
                flips = noise.sample_measurement_vector(code, StabilizerType.X, rng)
                rounds.append(((parity @ accumulated) % 2) ^ flips)
            rounds.append((parity @ accumulated) % 2)
            observed = np.stack(rounds)
            detections = observed ^ np.vstack([np.zeros_like(observed[:1]), observed[:-1]])
            result = decoder.decode(detections)
            correction = np.zeros(code.num_data_qubits, dtype=np.uint8)
            for qubit in result.correction:
                correction[code.data_index[qubit]] ^= 1
            residual_syndrome = (parity @ (accumulated ^ correction)) % 2
            mismatches += int(residual_syndrome.any())
        # The Clique stage may occasionally mis-attribute a persistent
        # measurement fault (the paper's acknowledged accuracy loss), but the
        # overwhelming majority of histories must close cleanly.
        assert mismatches <= trials * 0.2


class TestExperimentPipeline:
    def test_registry_to_cli_round_trip(self, capsys):
        from repro.cli import main

        assert main(["run", "fig15", "--param", "measurement_rounds=2"]) == 0
        out = capsys.readouterr().out
        assert "power_uw" in out
        assert "code_distance" in out

    def test_headline_bandwidth_claim_holds_end_to_end(self):
        # Section 1: 70-99+% of off-chip bandwidth eliminated across operating
        # points.  Check the two extremes of the paper's range.
        worst = simulate_clique_coverage(
            RotatedSurfaceCode(21), PhenomenologicalNoise(1e-2), 20_000, rng=32
        )
        best = simulate_clique_coverage(
            RotatedSurfaceCode(5), PhenomenologicalNoise(5e-4), 20_000, rng=33
        )
        assert worst.coverage > 0.6
        assert best.coverage > 0.99
