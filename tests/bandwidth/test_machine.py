"""Tests for the multi-logical-qubit machine simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandwidth.allocation import provision_for_percentile
from repro.bandwidth.machine import LogicalMachine, MachineSimulationResult, empirical_plan
from repro.bandwidth.stalling import StallSimulator
from repro.exceptions import BandwidthConfigurationError, ConfigurationError
from repro.noise.models import PhenomenologicalNoise


def _machine(code, error_rate=1e-2, qubits=50):
    return LogicalMachine(code, PhenomenologicalNoise(error_rate), num_logical_qubits=qubits)


class TestConstruction:
    def test_rejects_nonpositive_qubits(self, code_d3):
        with pytest.raises(ConfigurationError):
            LogicalMachine(code_d3, PhenomenologicalNoise(0.01), num_logical_qubits=0)

    def test_rejects_zero_rounds(self, code_d3):
        with pytest.raises(ConfigurationError):
            LogicalMachine(
                code_d3, PhenomenologicalNoise(0.01), num_logical_qubits=10, measurement_rounds=0
            )

    def test_exposes_configuration(self, code_d5):
        machine = _machine(code_d5, qubits=25)
        assert machine.num_logical_qubits == 25
        assert machine.code is code_d5


class TestSimulation:
    def test_rejects_nonpositive_cycles(self, code_d3):
        with pytest.raises(ConfigurationError):
            _machine(code_d3).simulate(0)

    @pytest.mark.parametrize("batch_cycles", [0, -3])
    def test_rejects_nonpositive_batch_cycles(self, code_d3, batch_cycles):
        # A batch of <= 0 cycles never advances the run: reject, do not spin.
        with pytest.raises(ConfigurationError, match="batch_cycles"):
            _machine(code_d3).simulate(10, rng=1, batch_cycles=batch_cycles)

    def test_demand_trace_shape_and_bounds(self, code_d5):
        machine = _machine(code_d5, qubits=40)
        result = machine.simulate(200, rng=1)
        assert result.cycles == 200
        assert result.offchip_requests_per_cycle.shape == (200,)
        assert result.offchip_requests_per_cycle.min() >= 0
        assert result.peak_requests_per_cycle <= 40

    def test_zero_noise_has_zero_demand(self, code_d5):
        machine = LogicalMachine(code_d5, PhenomenologicalNoise(0.0), num_logical_qubits=30)
        result = machine.simulate(100, rng=2)
        assert result.mean_requests_per_cycle == 0.0
        assert result.offchip_rate_per_qubit == 0.0

    def test_reproducible_with_seed(self, code_d5):
        machine = _machine(code_d5)
        first = machine.simulate(100, rng=3)
        second = machine.simulate(100, rng=3)
        assert np.array_equal(
            first.offchip_requests_per_cycle, second.offchip_requests_per_cycle
        )

    def test_frozen_demand_trace(self, code_d9):
        # Seeded pin taken when the machine ran its own int64 matmul body; it
        # now shares the packed coverage kernel and must draw identically.
        machine = LogicalMachine(
            code_d9, PhenomenologicalNoise(5e-3), num_logical_qubits=200
        )
        result = machine.simulate(50, rng=3)
        assert result.offchip_requests_per_cycle.tolist() == [
            3, 3, 8, 5, 2, 4, 3, 0, 2, 4, 3, 3, 4, 2, 0, 5, 4, 3, 6, 3, 5, 3, 5, 2, 4,
            3, 2, 2, 0, 2, 5, 1, 1, 2, 2, 6, 3, 0, 7, 6, 3, 2, 1, 2, 2, 4, 3, 3, 1, 4,
        ]

    def test_batching_does_not_change_statistics(self, code_d5):
        machine = _machine(code_d5)
        coarse = machine.simulate(200, rng=4, batch_cycles=200)
        fine = machine.simulate(200, rng=4, batch_cycles=7)
        # Different batching consumes the RNG in a different order, so compare
        # aggregate statistics rather than the exact trace.
        assert coarse.mean_requests_per_cycle == pytest.approx(
            fine.mean_requests_per_cycle, rel=0.35, abs=1.0
        )

    def test_offchip_rate_matches_single_qubit_coverage(self, code_d9):
        from repro.simulation.coverage import simulate_clique_coverage

        noise = PhenomenologicalNoise(1e-2)
        machine = LogicalMachine(code_d9, noise, num_logical_qubits=100)
        result = machine.simulate(300, rng=5)
        coverage = simulate_clique_coverage(code_d9, noise, 30_000, rng=6)
        assert result.offchip_rate_per_qubit == pytest.approx(
            coverage.offchip_fraction, abs=0.02
        )

    def test_demand_grows_with_error_rate(self, code_d9):
        low = _machine(code_d9, error_rate=1e-3, qubits=100).simulate(200, rng=7)
        high = _machine(code_d9, error_rate=1e-2, qubits=100).simulate(200, rng=8)
        assert high.mean_requests_per_cycle > low.mean_requests_per_cycle


class TestEmpiricalPlanning:
    def test_percentile_validation(self, code_d5):
        result = _machine(code_d5).simulate(100, rng=9)
        with pytest.raises(BandwidthConfigurationError):
            result.demand_percentile(0.0)

    def test_empirical_plan_has_at_least_unit_capacity(self, code_d5):
        machine = LogicalMachine(code_d5, PhenomenologicalNoise(0.0), num_logical_qubits=10)
        plan = empirical_plan(machine.simulate(50, rng=10), 99.0)
        assert plan.decodes_per_cycle == 1

    def test_empirical_plan_close_to_binomial_model(self, code_d9):
        machine = _machine(code_d9, error_rate=1e-2, qubits=200)
        result = machine.simulate(500, rng=11)
        measured = empirical_plan(result, 99.0)
        modelled = provision_for_percentile(200, result.offchip_rate_per_qubit, 99.0)
        assert abs(measured.decodes_per_cycle - modelled.decodes_per_cycle) <= max(
            3, 0.25 * modelled.decodes_per_cycle
        )

    def test_empirical_plan_feeds_the_stall_simulator(self, code_d9):
        machine = _machine(code_d9, error_rate=1e-2, qubits=200)
        result = machine.simulate(500, rng=12)
        plan = empirical_plan(result, 99.5)
        outcome = StallSimulator(plan, seed=13).run(1000)
        assert outcome.completed
        assert outcome.execution_time_increase < 0.5

    def test_result_dataclass_round_trip(self):
        trace = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        result = MachineSimulationResult(
            num_logical_qubits=10,
            physical_error_rate=0.01,
            code_distance=5,
            offchip_requests_per_cycle=trace,
        )
        assert result.cycles == 5
        assert result.mean_requests_per_cycle == pytest.approx(2.0)
        assert result.peak_requests_per_cycle == 4
        assert result.demand_percentile(50.0) == 2


def _trace_result(trace) -> MachineSimulationResult:
    return MachineSimulationResult(
        num_logical_qubits=100,
        physical_error_rate=0.01,
        code_distance=5,
        offchip_requests_per_cycle=np.asarray(trace, dtype=np.int64),
    )


def _smallest_covering_demand(trace, percentile: float) -> int:
    """The provisioning rule: the smallest B with P(demand <= B) >= q."""
    trace = np.asarray(trace)
    q = percentile / 100.0
    return min(b for b in np.unique(trace) if np.mean(trace <= b) >= q)


class TestDemandPercentile:
    def test_never_rounds_below_the_covering_demand(self):
        # One decode per cycle covers only half the cycles, short of the 75%
        # asked for, so the capacity must be 2.
        assert _trace_result([1, 2]).demand_percentile(75.0) == 2

    def test_matches_the_smallest_covering_demand_on_random_traces(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            trace = rng.poisson(rng.uniform(0.5, 20.0), size=rng.integers(1, 60))
            percentile = float(rng.choice([50.0, 75.0, 90.0, 95.0, 99.0, 99.9]))
            assert _trace_result(trace).demand_percentile(
                percentile
            ) == _smallest_covering_demand(trace, percentile), (
                trace.tolist(),
                percentile,
            )
