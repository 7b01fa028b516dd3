"""Workload parameters, kept import-free so the setup probe pays only for
the library it measures.

Why each workload exists is written next to it; ``perfbench/README.md``
gives the longer account.
"""

from __future__ import annotations

#: Fig. 14's common case: d=13, p=1e-3, rounds=d through the two-tier
#: Clique+MWPM cascade on the batch engine.  Noise sampling, bit-plane
#: syndromes and Clique triage do the work; the matcher sees ~4% of trials.
#: 4096 trials per call keep the ~50 ms generation-2 GC pause that lands in
#: ~8% of calls from deciding ``call_ms_p90`` on its own (see README.md).
MEM_LOWP = {"distance": 13, "error_rate": 1e-3, "rounds": 13, "trials": 4096, "gate_trials": 64}

#: Fig. 14's divergence regime: d=11, p=1e-2, rounds=2d.  About a quarter of
#: rounds go off-chip and MWPM calls dominate, so a triage change that
#: escalates more trials shows here and not on ``mem-lowp``.
MEM_DEEP = {"distance": 11, "error_rate": 1e-2, "rounds": 22, "trials": 96, "gate_trials": 32}

#: The corners of Fig. 11's grid (its smallest and largest distance at a low
#: and a high error rate) through the sweep scheduler, a process pool of
#: ``nproc`` workers, ``chunk_cycles="auto"`` and a fresh result store per
#: call.  The only workload that drives the scheduler, the pool, store
#: writes and the coverage kernel.  Per-call cost is mostly fixed per-shard
#: and per-pool overhead, so a larger grid buys few extra samples and
#: fewer calls per run.
COV_SWEEP = {
    "distances": (3, 21),
    "error_rates": (1e-3, 1e-2),
    "cycles": 1000,
    "gate_distance": 21,
    "gate_error_rate": 1e-2,
    "gate_chunk_cycles": 250,
}

#: Fig. 16's operating points through coverage -> percentile provisioning ->
#: the stall simulator, in one process.  The timed calls provision at the
#: percentiles the paper recommends (75th and up), where every run
#: completes; mean provisioning (the 50th percentile), whose cost is
#: heavy-tailed by design (it never drains its backlog), is checked by the
#: correctness gate instead of being timed.
STALL_SWEEP = {
    "operating_points": ((1e-2, 11), (5e-3, 13), (1e-3, 9)),
    "percentiles": (75.0, 90.0, 95.0, 99.0, 99.9, 99.99),
    "num_logical_qubits": 1000,
    "program_cycles": 2500,
    "coverage_cycles": 500,
    "gate_operating_points": ((1e-2, 11), (5e-3, 13)),
    "gate_percentiles": (50.0, 99.0),
    "gate_program_cycles": 1000,
    "gate_coverage_cycles": 2000,
    #: Mean provisioning must diverge or stretch execution by this factor.
    "gate_min_slowdown": 10.0,
}

WORKLOAD_NAMES = ("mem-lowp", "mem-deep", "cov-sweep", "stall-sweep")
