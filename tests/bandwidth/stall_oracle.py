"""Per-cycle scalar formulation of the stall simulator: a test oracle.

The production loop (:meth:`repro.bandwidth.stalling.StallSimulator.run`)
draws the per-cycle demand in blocks and derives the carryover with the
Lindley recursion over whole arrays.  This module keeps the formulation it
replaced: one scalar ``rng.binomial`` draw per cycle and explicit carryover
bookkeeping.  Both consume the same draws from the same generator in the
same order, so for any seed their results, their per-cycle records and the
generator's state afterwards must be equal, not merely close.
"""

from __future__ import annotations

import numpy as np

from repro.bandwidth.allocation import BandwidthPlan
from repro.bandwidth.stalling import CycleRecord, StallSimulationResult


def oracle_run(
    plan: BandwidthPlan,
    rng: np.random.Generator,
    program_cycles: int,
    keep_records: bool = False,
    abort_backlog_factor: float = 100.0,
) -> StallSimulationResult:
    """The scalar stall loop on an already validated, positive-capacity plan."""
    capacity = plan.decodes_per_cycle
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
        new_requests = int(rng.binomial(plan.num_logical_qubits, plan.offchip_rate))
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
