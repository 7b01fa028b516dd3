"""Statistical off-chip bandwidth allocation (Section 5.1 of the paper).

A machine with ``Q`` logical qubits generates, every decode cycle, a random
number of off-chip decode requests: each logical qubit independently needs
the complex decoder with probability ``1 - coverage``.  Provisioning the
off-chip link for the *mean* of that distribution leads to an unbounded
decode backlog (Fig. 9 top), so the paper provisions for a high percentile
instead (Fig. 9 bottom) and falls back to execution stalling for the rare
overflow cycles.

The percentile is an exact binomial quantile computed in-tree
(:func:`binomial_quantile`): the pmf is accumulated term by term, each term
evaluated in log space with ``math.lgamma`` and ``math.log1p`` so neither
the binomial coefficient nor ``(1 - p)^(n - k)`` over- or underflows, and
the answer is the first ``k`` whose running CDF reaches the requested level;
a running CDF within rounding distance of the level is compared in exact
integer arithmetic instead.  At the scales here (``Q`` up to thousands)
that is a few thousand scalar terms at most, and the module needs no
statistics library.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from repro.exceptions import BandwidthConfigurationError, InvalidProbabilityError


@dataclass(frozen=True)
class BandwidthPlan:
    """A provisioning decision for the off-chip decode link.

    Attributes:
        num_logical_qubits: number of logical qubits sharing the link.
        offchip_rate: per-qubit, per-cycle probability of needing an off-chip
            decode (``1 - coverage``).
        percentile: the percentile of the per-cycle request distribution the
            link is provisioned for.
        decodes_per_cycle: the resulting provisioned link capacity, in
            off-chip decodes per cycle.
    """

    num_logical_qubits: int
    offchip_rate: float
    percentile: float
    decodes_per_cycle: int

    @property
    def mean_requests_per_cycle(self) -> float:
        return self.num_logical_qubits * self.offchip_rate

    @property
    def bandwidth_reduction(self) -> float:
        """Reduction versus shipping every logical qubit's syndrome every cycle."""
        if self.decodes_per_cycle == 0:
            return float("inf")
        return self.num_logical_qubits / self.decodes_per_cycle

    @property
    def headroom(self) -> float:
        """Provisioned capacity divided by the mean demand (must exceed 1 to drain backlogs)."""
        mean = self.mean_requests_per_cycle
        if mean == 0:
            return float("inf")
        return self.decodes_per_cycle / mean


def binomial_quantile(n: int, p: float, q: float) -> int:
    """Smallest ``k`` with ``P(Binomial(n, p) <= k) >= q``, exactly.

    ``p == 0`` gives 0 and ``p == 1`` gives ``n`` (all mass on one point).
    Otherwise the pmf terms ``C(n, k) p^k (1 - p)^(n - k)`` are summed from
    ``k = 0`` in log space.  The running sum carries a rounding error of a
    few ulps of ``lgamma(n + 1)``; whenever it lands within a generous bound
    of that of ``q`` (a near-tie, such as ``n = 2, p = 0.5, q = 0.75``), the
    comparison is settled in exact integer arithmetic on the binary values
    of ``p`` and ``q`` (:func:`_cdf_reaches`).  If the CDF never reaches
    ``q`` before ``k = n``, the answer is ``n``, where it is exactly 1.
    """
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    log_p = math.log(p)
    log_not_p = math.log1p(-p)
    log_n_factorial = math.lgamma(n + 1)
    tie_bound = 1024 * sys.float_info.epsilon * (1.0 + log_n_factorial)
    cdf = 0.0
    for k in range(n):
        cdf += math.exp(
            log_n_factorial
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_p
            + (n - k) * log_not_p
        )
        if cdf >= q + tie_bound:
            return k
        if cdf > q - tie_bound and _cdf_reaches(n, p, k, q):
            return k
    return n


def _cdf_reaches(n: int, p: float, k: int, q: float) -> bool:
    """Whether ``P(Binomial(n, p) <= k) >= q`` for the exact binary ``p``, ``q``.

    With ``p = a / D`` (``D`` a power of two, so ``1 - p = (D - a) / D``),
    the CDF times ``D^n`` is the integer ``sum_{j<=k} C(n, j) a^j (D - a)^(n - j)``,
    accumulated Horner-style as ``T_j = (D - a) T_{j-1} + C(n, j) a^j``.
    """
    a, denominator = float(p).as_integer_ratio()
    b = denominator - a
    partial = 0
    coefficient = 1
    a_power = 1
    for j in range(k + 1):
        partial = partial * b + coefficient * a_power
        coefficient = coefficient * (n - j) // (j + 1)
        a_power *= a
    q_numerator, q_denominator = q.as_integer_ratio()
    return partial * b ** (n - k) * q_denominator >= q_numerator * denominator**n


def provision_for_percentile(
    num_logical_qubits: int,
    offchip_rate: float,
    percentile: float,
) -> BandwidthPlan:
    """Provision the off-chip link for a percentile of the per-cycle demand.

    The per-cycle demand is Binomial(``num_logical_qubits``, ``offchip_rate``);
    the provisioned capacity is the smallest integer ``B`` with
    ``P(demand <= B) >= percentile / 100``, never less than one decode per
    cycle so the link can always make progress.
    """
    if (
        isinstance(num_logical_qubits, bool)
        or not isinstance(num_logical_qubits, numbers.Integral)
        or num_logical_qubits <= 0
    ):
        raise BandwidthConfigurationError(
            f"num_logical_qubits must be a positive integer, got {num_logical_qubits!r}"
        )
    if not 0.0 <= offchip_rate <= 1.0:
        raise InvalidProbabilityError("offchip_rate", offchip_rate)
    if not 0.0 < percentile < 100.0:
        raise BandwidthConfigurationError(
            f"percentile must lie strictly between 0 and 100, got {percentile}"
        )
    quantile = binomial_quantile(int(num_logical_qubits), offchip_rate, percentile / 100.0)
    capacity = max(quantile, 1)
    return BandwidthPlan(
        num_logical_qubits=num_logical_qubits,
        offchip_rate=offchip_rate,
        percentile=percentile,
        decodes_per_cycle=capacity,
    )


def provisioning_sweep(
    num_logical_qubits: int,
    offchip_rate: float,
    percentiles: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99),
) -> list[BandwidthPlan]:
    """Plans for a range of percentiles (the x-axis material of Fig. 16)."""
    return [
        provision_for_percentile(num_logical_qubits, offchip_rate, percentile)
        for percentile in percentiles
    ]


__all__ = [
    "BandwidthPlan",
    "binomial_quantile",
    "provision_for_percentile",
    "provisioning_sweep",
]
