"""Tests for statistical off-chip bandwidth allocation.

The in-tree binomial quantile is checked two ways: against an exact
rational CDF (``fractions``) where that is affordable, and against scipy's
``binom.ppf`` — the formulation it replaced — as a lazily imported
differential oracle over every size, rate and percentile the figures use.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.bandwidth.allocation import (
    BandwidthPlan,
    binomial_quantile,
    provision_for_percentile,
    provisioning_sweep,
)
from repro.exceptions import BandwidthConfigurationError, InvalidProbabilityError

SIZES = (1, 10, 100, 1000, 5000)
#: Degenerate and tiny rates, round rates, and the measured off-chip rates
#: of the default fig09/fig16 runs and the small fig09/fig16 pins.
RATES = (
    0.0,
    1e-6,
    0.00044999999999995044,
    0.0005,
    0.01,
    0.03444999999999998,
    0.05,
    0.0875,
    0.08830000000000005,
    0.08955000000000002,
    0.0945,
    0.5,
    0.999,
    1.0,
)
#: Every percentile fig09, fig16 and the stall-sweep benchmark provision at.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def _exact_quantile(n: int, p: float, q: float) -> int:
    """The quantile from the exact rational CDF of Binomial(n, p)."""
    p_exact, q_exact = Fraction(p), Fraction(q)
    cdf = Fraction(0)
    for k in range(n + 1):
        cdf += math.comb(n, k) * p_exact**k * (1 - p_exact) ** (n - k)
        if cdf >= q_exact:
            return k
    raise AssertionError("the exact CDF reaches 1")


class TestBinomialQuantile:
    @pytest.mark.parametrize("n", (1, 10, 100))
    def test_matches_exact_rational_cdf(self, n):
        for p in RATES:
            for percentile in PERCENTILES:
                q = percentile / 100.0
                assert binomial_quantile(n, p, q) == _exact_quantile(n, p, q), (p, q)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_scipy_ppf(self, n):
        stats = pytest.importorskip("scipy.stats")
        for p in RATES:
            for percentile in PERCENTILES:
                q = percentile / 100.0
                expected = int(stats.binom(n, p).ppf(q))
                assert binomial_quantile(n, p, q) == expected, (p, q)

    @pytest.mark.parametrize(
        "n,p,q,expected",
        [
            (2, 0.5, 0.75, 1),  # CDF(1) == q exactly
            (3, 0.1, 99.9 / 100, 3),  # 1 - p**3 lies just below q
            (1, 0.1, 0.9, 1),  # 1 - p lies just below the binary 0.9
        ],
    )
    def test_near_ties_are_settled_exactly(self, n, p, q, expected):
        # A plain log-space sum puts each of these CDFs on the wrong side of
        # q; scipy's floating-point CDF does too on the last one.
        assert _exact_quantile(n, p, q) == expected
        assert binomial_quantile(n, p, q) == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_degenerate_rates(self, n):
        for percentile in PERCENTILES:
            assert binomial_quantile(n, 0.0, percentile / 100.0) == 0
            assert binomial_quantile(n, 1.0, percentile / 100.0) == n


class TestProvisioning:
    def test_capacity_covers_requested_percentile(self):
        plan = provision_for_percentile(1000, 0.05, 99.0)
        assert plan.decodes_per_cycle == _exact_quantile(1000, 0.05, 0.99)

    def test_higher_percentile_needs_more_bandwidth(self):
        low = provision_for_percentile(1000, 0.05, 50.0)
        high = provision_for_percentile(1000, 0.05, 99.9)
        assert high.decodes_per_cycle > low.decodes_per_cycle

    def test_median_provisioning_is_close_to_mean(self):
        plan = provision_for_percentile(1000, 0.05, 50.0)
        assert abs(plan.decodes_per_cycle - 50) <= 2

    def test_minimum_of_one_decode_per_cycle(self):
        plan = provision_for_percentile(1000, 1e-6, 50.0)
        assert plan.decodes_per_cycle == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(BandwidthConfigurationError):
            provision_for_percentile(0, 0.05, 99.0)
        with pytest.raises(InvalidProbabilityError):
            provision_for_percentile(100, 1.5, 99.0)
        with pytest.raises(BandwidthConfigurationError):
            provision_for_percentile(100, 0.05, 100.0)

    @pytest.mark.parametrize("num_qubits", [1000.5, 1000.0, True, False, float("nan"), "1000"])
    def test_non_integer_qubit_count_rejected(self, num_qubits):
        # A float count used to surface as a bare scipy ValueError and True
        # provisioned one qubit; both are configuration errors.
        with pytest.raises(BandwidthConfigurationError, match="num_logical_qubits"):
            provision_for_percentile(num_qubits, 0.05, 99.0)

    def test_numpy_integer_qubit_count_accepted(self):
        plan = provision_for_percentile(np.int64(1000), 0.05, 99.0)
        assert plan.decodes_per_cycle == provision_for_percentile(1000, 0.05, 99.0).decodes_per_cycle
        assert type(plan.decodes_per_cycle) is int


class TestBandwidthPlan:
    def test_bandwidth_reduction_relative_to_all_qubits(self):
        plan = BandwidthPlan(
            num_logical_qubits=1000, offchip_rate=0.05, percentile=99.0, decodes_per_cycle=80
        )
        assert plan.bandwidth_reduction == pytest.approx(12.5)

    def test_zero_capacity_reduction_is_infinite(self):
        plan = BandwidthPlan(1000, 0.05, 99.0, 0)
        assert math.isinf(plan.bandwidth_reduction)

    def test_mean_requests(self):
        plan = BandwidthPlan(1000, 0.05, 99.0, 80)
        assert plan.mean_requests_per_cycle == pytest.approx(50.0)

    def test_headroom_above_one_for_high_percentiles(self):
        plan = provision_for_percentile(1000, 0.05, 99.0)
        assert plan.headroom > 1.0

    def test_headroom_infinite_when_no_demand(self):
        plan = BandwidthPlan(1000, 0.0, 99.0, 1)
        assert math.isinf(plan.headroom)


class TestSweep:
    def test_sweep_returns_one_plan_per_percentile(self):
        plans = provisioning_sweep(500, 0.02, percentiles=(50.0, 90.0, 99.0))
        assert len(plans) == 3
        assert [plan.percentile for plan in plans] == [50.0, 90.0, 99.0]

    def test_sweep_capacity_is_nondecreasing(self):
        plans = provisioning_sweep(500, 0.02)
        capacities = [plan.decodes_per_cycle for plan in plans]
        assert capacities == sorted(capacities)
