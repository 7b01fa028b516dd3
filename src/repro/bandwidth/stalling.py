"""Decode-overflow execution stalling (Section 5.2, Figs. 9 and 16).

When a cycle produces more off-chip decode requests than the provisioned
link can serve, the unserved requests *carry over* and the next cycle must be
a stall cycle: the waveform generator performs identities on every logical
qubit so no new gates depend on the undecoded corrections.  Crucially, a
stall cycle is not error-free — qubits keep decohering — so it produces new
decode requests of its own.  The simulator below reproduces that dynamic and
reports how much the program's execution is stretched for a given
provisioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bandwidth.allocation import BandwidthPlan
from repro.exceptions import BandwidthConfigurationError
from repro.noise.rng import make_rng


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle accounting used to draw Fig. 9-style timelines."""

    cycle: int
    new_requests: int
    carryover: int
    served: int
    is_stall: bool

    @property
    def demand(self) -> int:
        return self.new_requests + self.carryover


@dataclass
class StallSimulationResult:
    """Outcome of simulating a program under a bandwidth plan.

    Attributes:
        plan: the provisioning that was simulated.
        program_cycles: number of useful (non-stall) cycles executed.
        stall_cycles: number of stall cycles inserted.
        completed: False when the backlog kept growing and the run was
            aborted (the "infinite stalling" regime of mean provisioning).
        max_backlog: largest carryover observed.
        records: per-cycle trace (only kept when requested).
    """

    plan: BandwidthPlan
    program_cycles: int
    stall_cycles: int
    completed: bool
    max_backlog: int
    records: list[CycleRecord] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.program_cycles + self.stall_cycles

    @property
    def execution_time_increase(self) -> float:
        """Fractional slowdown: stall cycles per useful cycle (inf if aborted)."""
        if not self.completed:
            return float("inf")
        if self.program_cycles == 0:
            return 0.0
        return self.stall_cycles / self.program_cycles

    @property
    def stall_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.stall_cycles / self.total_cycles


class StallSimulator:
    """Monte-Carlo simulator of the off-chip link under a bandwidth plan.

    Args:
        plan: the provisioning to simulate.
        seed: RNG seed (or a ready generator) for the per-cycle demand draws.
    """

    def __init__(self, plan: BandwidthPlan, seed: int | np.random.Generator | None = None) -> None:
        if plan.decodes_per_cycle < 0:
            raise BandwidthConfigurationError(
                "provisioned bandwidth must be >= 0 decodes/cycle"
            )
        self._plan = plan
        self._rng = make_rng(seed)

    @property
    def plan(self) -> BandwidthPlan:
        return self._plan

    # ------------------------------------------------------------------
    def run(
        self,
        program_cycles: int,
        keep_records: bool = False,
        abort_backlog_factor: float = 100.0,
    ) -> StallSimulationResult:
        """Execute ``program_cycles`` useful cycles, inserting stalls as needed.

        Args:
            program_cycles: how many non-stall cycles the program needs.
            keep_records: keep the per-cycle trace (memory heavy for long runs).
            abort_backlog_factor: abort and report ``completed=False`` once the
                carryover backlog exceeds this multiple of the provisioned
                per-cycle capacity — the signature of an unstable allocation.
                Must be finite and non-negative: an infinite or NaN factor
                never aborts, so an unstable plan would loop forever, and a
                negative one aborts a healthy plan after one cycle.

        A zero-capacity plan with a non-zero ``offchip_rate`` is the
        degenerate instance of that regime and returns the infinite-stalling
        report immediately: ``completed=False`` and therefore
        ``execution_time_increase == inf`` (with ``offchip_rate == 0`` there
        is nothing to serve and the program completes stall-free).
        """
        if program_cycles <= 0:
            raise BandwidthConfigurationError(
                f"program_cycles must be positive, got {program_cycles}"
            )
        if not (math.isfinite(abort_backlog_factor) and abort_backlog_factor >= 0):
            raise BandwidthConfigurationError(
                "abort_backlog_factor must be finite and >= 0, got "
                f"{abort_backlog_factor}"
            )
        plan = self._plan
        capacity = plan.decodes_per_cycle
        if capacity == 0 and plan.offchip_rate > 0.0:
            # Zero provisioned capacity with any demand is the "infinite
            # stalling" regime by definition: the first off-chip request can
            # never be served, so the backlog diverges with certainty.  With
            # the general loop below this would also fall out implicitly —
            # ``abort_threshold = abort_backlog_factor * 0 = 0`` makes the
            # first carryover abort — but that path hinges on a product that
            # a refactor could easily turn into a ZeroDivision or an
            # infinite loop, so the regime is reported explicitly (and
            # without consuming any RNG stream).
            return StallSimulationResult(
                plan=plan,
                program_cycles=0,
                stall_cycles=0,
                completed=False,
                max_backlog=0,
                records=[],
            )
        abort_threshold = abort_backlog_factor * capacity

        executed = 0
        stalls = 0
        carryover = 0
        max_backlog = 0
        cycle_index = 0
        records: list[CycleRecord] = []
        completed = True

        while executed < program_cycles:
            is_stall = carryover > 0
            new_requests = int(
                self._rng.binomial(plan.num_logical_qubits, plan.offchip_rate)
            )
            demand = carryover + new_requests
            served = min(demand, capacity)
            carryover = demand - served
            max_backlog = max(max_backlog, carryover)

            if keep_records:
                records.append(
                    CycleRecord(
                        cycle=cycle_index,
                        new_requests=new_requests,
                        carryover=demand - new_requests,
                        served=served,
                        is_stall=is_stall,
                    )
                )
            if is_stall:
                stalls += 1
            else:
                executed += 1
            cycle_index += 1

            if carryover > abort_threshold:
                completed = False
                break

        return StallSimulationResult(
            plan=plan,
            program_cycles=executed,
            stall_cycles=stalls,
            completed=completed,
            max_backlog=max_backlog,
            records=records,
        )


def tradeoff_curve(
    plans: list[BandwidthPlan],
    program_cycles: int,
    seed: int | None = None,
) -> list[tuple[BandwidthPlan, StallSimulationResult]]:
    """Simulate a list of plans and return (plan, result) pairs (Fig. 16 material)."""
    results = []
    for offset, plan in enumerate(plans):
        simulator = StallSimulator(plan, seed=None if seed is None else seed + offset)
        results.append((plan, simulator.run(program_cycles)))
    return results


__all__ = ["CycleRecord", "StallSimulationResult", "StallSimulator", "tradeoff_curve"]
