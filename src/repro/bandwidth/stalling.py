"""Decode-overflow execution stalling (Section 5.2, Figs. 9 and 16).

When a cycle produces more off-chip decode requests than the provisioned
link can serve, the unserved requests *carry over* and the next cycle must be
a stall cycle: the waveform generator performs identities on every logical
qubit so no new gates depend on the undecoded corrections.  Crucially, a
stall cycle is not error-free — qubits keep decohering — so it produces new
decode requests of its own.  The simulator below reproduces that dynamic and
reports how much the program's execution is stretched for a given
provisioning.

With ``a_t`` new requests in cycle ``t`` and a capacity of ``B`` decodes
per cycle, the carryover follows the Lindley recursion
``c_t = max(0, c_{t-1} + a_t - B)``, and cycle ``t`` is a stall exactly
when ``c_{t-1} > 0``.  The simulator evaluates it a block of cycles at a
time, without a per-cycle Python loop: one ``rng.binomial(..., size=k)``
call draws the block's demand (the same stream as ``k`` scalar draws), and
the recursion has the closed form ``c_t = S_t - min(-c_0, S_1, ..., S_t)``
with ``S_t`` the running sum of ``a_t - B`` — a ``cumsum`` and a
``minimum.accumulate``.  The generator is left exactly where one scalar
draw per simulated cycle would leave it (see :meth:`StallSimulator.run`),
so a generator shared with other consumers sees no difference either.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.bandwidth.allocation import BandwidthPlan
from repro.exceptions import BandwidthConfigurationError
from repro.noise.rng import make_rng

#: Most demand draws taken in one block of :meth:`StallSimulator.run`.  A
#: block is sized to the useful cycles still owed, so this cap only bounds
#: the block's memory on huge programs; it never changes a result.
MAX_BLOCK_CYCLES = 1 << 16


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
            program_cycles: how many non-stall cycles the program needs; a
                positive integer (``bool`` is refused: ``True`` is not a
                cycle count).
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

        The run proceeds in blocks of ``min(useful cycles still owed,
        MAX_BLOCK_CYCLES)`` cycles.  Each block takes its demand in one
        ``rng.binomial(..., size=k)`` call and derives the carryover with
        the Lindley recursion (see the module docstring).  A block can end
        the program only on its last cycle, because every cycle is worth at
        most one useful cycle, so a completing run draws exactly the cycles
        it simulates.  An aborting run stops inside its block: the generator
        is rewound to the block's start and the cycles that ran are drawn
        again, so a generator passed in as ``seed`` ends in the same state as
        after one scalar draw per simulated cycle.
        """
        if (
            isinstance(program_cycles, bool)
            or not isinstance(program_cycles, numbers.Integral)
            or program_cycles <= 0
        ):
            raise BandwidthConfigurationError(
                f"program_cycles must be a positive integer, got {program_cycles!r}"
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
        program_cycles = int(program_cycles)
        rng = self._rng

        executed = 0
        stalls = 0
        carryover = 0
        max_backlog = 0
        cycle_index = 0
        records: list[CycleRecord] = []
        completed = True

        while executed < program_cycles:
            size = min(program_cycles - executed, MAX_BLOCK_CYCLES)
            block_start = rng.bit_generator.state
            new_requests = rng.binomial(plan.num_logical_qubits, plan.offchip_rate, size=size)
            # c_t = S_t - min(-c_0, S_1, ..., S_t) with S_t the running sum of
            # (a_t - B): the Lindley recursion c_t = max(0, c_{t-1} + a_t - B).
            drift = np.cumsum(new_requests - capacity)
            backlog = drift - np.minimum(np.minimum.accumulate(drift), -carryover)
            overflow = backlog > abort_threshold
            first_overflow = int(overflow.argmax())
            if overflow[first_overflow]:
                completed = False
                size = first_overflow + 1
                new_requests = new_requests[:size]
                backlog = backlog[:size]
                # Only the cycles up to the abort ran: redraw just those from
                # the block's start, so the generator ends where per-cycle
                # draws would have left it.
                rng.bit_generator.state = block_start
                rng.binomial(plan.num_logical_qubits, plan.offchip_rate, size=size)

            # Cycle t stalls when it inherits a backlog: c_{t-1} > 0.
            block_stalls = int(carryover > 0) + int(np.count_nonzero(backlog[:-1]))
            if keep_records:
                inherited = np.concatenate(([carryover], backlog[:-1]))
                served = inherited + new_requests - backlog
                records.extend(
                    CycleRecord(
                        cycle=cycle_index + offset,
                        new_requests=new,
                        carryover=carried,
                        served=done,
                        is_stall=carried > 0,
                    )
                    for offset, (new, carried, done) in enumerate(
                        zip(new_requests.tolist(), inherited.tolist(), served.tolist())
                    )
                )
            stalls += block_stalls
            executed += size - block_stalls
            cycle_index += size
            max_backlog = max(max_backlog, int(backlog.max()))
            carryover = int(backlog[-1])
            if not completed:
                break

        return StallSimulationResult(
            plan=plan,
            program_cycles=executed,
            stall_cycles=stalls,
            completed=completed,
            max_backlog=max_backlog,
            records=records,
        )


__all__ = ["CycleRecord", "StallSimulationResult", "StallSimulator"]
