"""Tests for the decode-overflow stalling simulator (Figs. 9 and 16)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bandwidth.allocation import BandwidthPlan, provision_for_percentile
from repro.bandwidth.stalling import StallSimulator
from repro.exceptions import BandwidthConfigurationError


class TestStallSimulator:
    def test_rejects_negative_capacity_plan(self):
        plan = BandwidthPlan(100, 0.1, 50.0, -1)
        with pytest.raises(BandwidthConfigurationError):
            StallSimulator(plan)

    def test_rejects_nonpositive_program_cycles(self):
        plan = provision_for_percentile(100, 0.01, 99.0)
        with pytest.raises(BandwidthConfigurationError):
            StallSimulator(plan, seed=0).run(0)

    @pytest.mark.parametrize(
        "program_cycles", [math.inf, math.nan, 2.5, 300.0, True, False, "300", -3]
    )
    def test_non_integer_program_cycles_rejected(self, program_cycles):
        # An unchecked inf never ends on a stable plan; 2.5 and True are
        # not cycle counts.
        plan = provision_for_percentile(1000, 0.001, 99.9)
        with pytest.raises(BandwidthConfigurationError, match="program_cycles"):
            StallSimulator(plan, seed=0).run(program_cycles)

    def test_numpy_integer_program_cycles_accepted(self):
        plan = provision_for_percentile(1000, 0.05, 90.0)
        result = StallSimulator(plan, seed=0).run(np.int64(300), keep_records=True)
        assert result == StallSimulator(plan, seed=0).run(300, keep_records=True)
        assert type(result.program_cycles) is int

    def test_no_demand_means_no_stalls(self):
        plan = BandwidthPlan(100, 0.0, 99.0, 1)
        result = StallSimulator(plan, seed=0).run(500)
        assert result.stall_cycles == 0
        assert result.execution_time_increase == 0.0
        assert result.completed

    def test_high_percentile_provisioning_rarely_stalls(self):
        plan = provision_for_percentile(1000, 0.05, 99.9)
        result = StallSimulator(plan, seed=1).run(2000)
        assert result.completed
        assert result.execution_time_increase < 0.05

    def test_mean_provisioning_stalls_heavily_or_aborts(self):
        plan = provision_for_percentile(1000, 0.05, 50.0)
        result = StallSimulator(plan, seed=2).run(2000, abort_backlog_factor=20.0)
        heavily_stalled = result.stall_fraction > 0.3
        assert heavily_stalled or not result.completed

    def test_aborted_run_reports_infinite_slowdown(self):
        # Capacity strictly below the mean demand: the backlog diverges.
        plan = BandwidthPlan(1000, 0.05, 50.0, 10)
        result = StallSimulator(plan, seed=3).run(5000, abort_backlog_factor=10.0)
        assert not result.completed
        assert math.isinf(result.execution_time_increase)

    def test_cycle_records_conserve_requests(self):
        plan = provision_for_percentile(200, 0.1, 90.0)
        result = StallSimulator(plan, seed=4).run(200, keep_records=True)
        for record in result.records:
            assert record.served <= plan.decodes_per_cycle
            assert record.served <= record.demand
            assert record.demand == record.new_requests + record.carryover

    def test_carryover_matches_previous_cycle_backlog(self):
        plan = provision_for_percentile(200, 0.1, 90.0)
        result = StallSimulator(plan, seed=5).run(200, keep_records=True)
        previous_backlog = 0
        for record in result.records:
            assert record.carryover == previous_backlog
            previous_backlog = record.demand - record.served

    def test_stall_cycles_follow_backlog(self):
        plan = provision_for_percentile(200, 0.1, 90.0)
        result = StallSimulator(plan, seed=6).run(200, keep_records=True)
        for record in result.records:
            assert record.is_stall == (record.carryover > 0)

    def test_total_cycles_adds_up(self):
        plan = provision_for_percentile(500, 0.02, 99.0)
        result = StallSimulator(plan, seed=7).run(300)
        assert result.total_cycles == result.program_cycles + result.stall_cycles
        assert result.program_cycles == 300

    @pytest.mark.parametrize("factor", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_abort_factor_is_rejected(self, factor):
        # On an under-provisioned plan an inf/nan factor never aborts, so the
        # run never returns; a negative one aborts a healthy plan after one
        # cycle.  The plan here is healthy, so a missing check shows as a
        # returned result, not a hang.
        plan = provision_for_percentile(1000, 0.001, 99.9)
        with pytest.raises(BandwidthConfigurationError, match="abort_backlog_factor"):
            StallSimulator(plan, seed=1).run(200, abort_backlog_factor=factor)


class TestZeroCapacityPlan:
    """Pins the intended zero-capacity semantics: the infinite-stalling report.

    ``abort_threshold = abort_backlog_factor * capacity`` degenerates to 0
    for a zero-capacity plan, so any carryover aborts instantly; the guarded
    fast path must keep reporting exactly that (``completed=False``,
    ``execution_time_increase == inf``) — never a ZeroDivisionError or an
    infinite loop — for any refactor of the simulation loop.
    """

    def test_zero_capacity_with_demand_reports_infinite_stalling(self):
        plan = BandwidthPlan(100, 0.1, 50.0, 0)
        result = StallSimulator(plan, seed=0).run(500)
        assert not result.completed
        assert math.isinf(result.execution_time_increase)
        assert result.program_cycles == 0
        assert result.stall_cycles == 0

    def test_zero_capacity_report_is_immediate_and_deterministic(self):
        plan = BandwidthPlan(100, 0.1, 50.0, 0)
        first = StallSimulator(plan, seed=1).run(10_000_000)  # must not loop
        second = StallSimulator(plan, seed=2).run(10_000_000)
        assert first == second  # no RNG consumed: seed-independent

    def test_zero_capacity_with_zero_demand_completes_stall_free(self):
        # Nothing ever needs serving: the program trivially completes.
        plan = BandwidthPlan(100, 0.0, 50.0, 0)
        result = StallSimulator(plan, seed=0).run(200)
        assert result.completed
        assert result.stall_cycles == 0
        assert result.execution_time_increase == 0.0

    def test_zero_capacity_with_records_requested_keeps_empty_trace(self):
        plan = BandwidthPlan(100, 0.1, 50.0, 0)
        result = StallSimulator(plan, seed=0).run(500, keep_records=True)
        assert result.records == []

    def test_tiny_abort_factor_still_terminates(self):
        # The neighbouring degenerate input: a positive capacity with a zero
        # abort factor must abort on the first backlog, not loop forever.
        plan = BandwidthPlan(1000, 0.5, 50.0, 1)
        result = StallSimulator(plan, seed=3).run(10_000, abort_backlog_factor=0.0)
        assert not result.completed
        assert math.isinf(result.execution_time_increase)


class TestTradeoffCurve:
    """Fig. 16's trade-off, one independently seeded simulator per plan."""

    def test_returns_one_result_per_plan(self):
        plans = [
            provision_for_percentile(500, 0.05, percentile)
            for percentile in (90.0, 99.0, 99.9)
        ]
        results = [
            StallSimulator(plan, seed=8 + offset).run(500)
            for offset, plan in enumerate(plans)
        ]
        assert len(results) == 3
        assert all(result.plan is plan for plan, result in zip(plans, results))

    def test_more_bandwidth_means_less_stalling(self):
        increase = {
            percentile: StallSimulator(
                provision_for_percentile(1000, 0.05, percentile), seed=9 + offset
            ).run(2000).execution_time_increase
            for offset, percentile in enumerate((75.0, 99.9))
        }
        assert increase[99.9] <= increase[75.0]
