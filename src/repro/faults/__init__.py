"""Fault tolerance for sharded Monte-Carlo execution.

Three cooperating pieces:

* :class:`FaultPolicy` / :class:`FaultReport` — how hard to try (retries,
  deterministic backoff, shard timeouts, pool respawns) and what actually
  happened;
* :class:`ShardExecutor` — the dispatch engine under the sweep scheduler
  (:class:`repro.simulation.scheduler.SweepScheduler`) implementing the
  recovery ladder;
* :class:`FaultInjector` + the ``REPRO_FAULT_PLAN`` grammar — a deterministic
  chaos harness for proving that a faulted run's output is byte-identical to
  a fault-free one.
"""

from repro.faults.executor import (
    SKIPPED,
    DegradedExecutionWarning,
    ShardExecutor,
    drop_idle_pool,
    pool_construction_count,
)
from repro.faults.injector import (
    FAULT_PLAN_ENV,
    FaultInjector,
    FaultPlan,
    InjectedFaultError,
    InjectedWorkerCrash,
    InjectedWorkerError,
    ShardFault,
    parse_fault_plan,
)
from repro.faults.policy import FaultPolicy, FaultReport, SkippedShard

__all__ = [
    "FAULT_PLAN_ENV",
    "SKIPPED",
    "DegradedExecutionWarning",
    "FaultInjector",
    "FaultPlan",
    "FaultPolicy",
    "FaultReport",
    "InjectedFaultError",
    "InjectedWorkerCrash",
    "InjectedWorkerError",
    "ShardExecutor",
    "ShardFault",
    "SkippedShard",
    "drop_idle_pool",
    "parse_fault_plan",
    "pool_construction_count",
]
