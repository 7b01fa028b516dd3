"""Monte-Carlo simulation harnesses (Section 6.1 of the paper)."""

from repro.simulation.batch import run_memory_experiment_batch
from repro.simulation.coverage import (
    CoverageKernel,
    CoverageResult,
    simulate_clique_coverage,
)
from repro.simulation.cycles import simulate_signature_distribution
from repro.simulation.memory import MemoryExperimentResult, run_memory_experiment
from repro.simulation.monte_carlo import (
    WilsonStoppingRule,
    until_wilson,
    wilson_interval,
    wilson_width,
)
from repro.simulation.results import SignatureDistribution
from repro.simulation.scheduler import (
    PointOutcome,
    SweepPoint,
    SweepScheduler,
    coverage_point,
    memory_point,
)
from repro.simulation.shard import MemoryKernel, resolve_auto_chunk

__all__ = [
    "PointOutcome",
    "SweepPoint",
    "SweepScheduler",
    "coverage_point",
    "memory_point",
    "resolve_auto_chunk",
    "simulate_signature_distribution",
    "SignatureDistribution",
    "CoverageKernel",
    "CoverageResult",
    "simulate_clique_coverage",
    "MemoryExperimentResult",
    "MemoryKernel",
    "run_memory_experiment",
    "run_memory_experiment_batch",
    "WilsonStoppingRule",
    "until_wilson",
    "wilson_interval",
    "wilson_width",
]
