#!/usr/bin/env python3
"""Scenario: a sweep that survives dying workers and resumes from its store.

Long sharded sweeps meet real faults: a worker OOM-killed mid-shard, a hung
process, a machine rebooted halfway through the grid.  This example uses the
fault-injection harness to *cause* those faults on purpose and shows the two
recovery layers absorbing them:

1. a two-worker ``SweepScheduler`` run SIGKILLs one of its own workers (a genuine broken
   process pool), respawns the pool, and re-dispatches the shard — retried
   shards replay their RNG streams bit-identically, so the final counts
   match a fault-free run exactly;
2. a fig14 sweep writes every finished point to a result store as it
   completes; a second invocation against the same store resumes, serving
   the already-finished points from disk and recomputing nothing.

Run with:  python examples/fault_tolerant_sweep.py

``REPRO_EXAMPLE_TRIALS`` shrinks the per-point trial budget (the test
suite's smoke lane runs every example this way).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro import (
    FaultInjector,
    FaultPolicy,
    FaultReport,
    MWPMDecoder,
    PhenomenologicalNoise,
    RotatedSurfaceCode,
)
from repro.experiments.fig14 import run as fig14_run
from repro.simulation import SweepScheduler, memory_point
from repro.store import ResultStore

DISTANCE = 5
ERROR_RATE = 1e-2
TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "800"))
CHUNK_TRIALS = max(1, TRIALS // 8)  # enough shards for the plan to hit one


def mwpm_factory(code, stype):
    """Module-level so pooled workers can pickle it."""
    return MWPMDecoder(code, stype)


def survive_a_worker_kill() -> None:
    print(f"=== 1. surviving a SIGKILLed worker (d={DISTANCE}, "
          f"{TRIALS} trials, 2 workers) ===")
    code = RotatedSurfaceCode(DISTANCE)
    noise = PhenomenologicalNoise(ERROR_RATE)
    point = memory_point(
        "point", code, noise, mwpm_factory,
        trials=TRIALS, seed=2026, chunk_trials=CHUNK_TRIALS,
    )
    clean = SweepScheduler(workers=2).run([point])["point"]

    # "shard 1 attempt 0 kill" SIGKILLs the worker executing shard 1 on its
    # first attempt — taking the whole process pool down with it.
    report = FaultReport()
    faulted = SweepScheduler(
        workers=2,
        faults=FaultPolicy(max_retries=2),
        fault_injector=FaultInjector.from_text("shard 1 attempt 0 kill"),
        fault_report=report,
    ).run([point])["point"]
    print(f"pool respawns: {report.pool_respawns}, "
          f"shard retries: {report.retries}")
    print(f"fault-free failures: {clean.logical_failures}, "
          f"faulted-run failures: {faulted.logical_failures}")
    assert faulted == clean
    print("recovered: the faulted run's counts are bit-identical\n")


def resume_from_the_store(store_root: Path) -> None:
    print(f"=== 2. resuming a killed sweep from its result store ===")
    params = dict(
        trials=TRIALS,
        seed=7,
        distances=(3, DISTANCE),
        error_rates=(ERROR_RATE,),
        workers=2,
        chunk_trials=CHUNK_TRIALS,
        max_retries=2,  # the CLI spelling: repro-qec fig14 --max-retries 2
        store=store_root,
    )
    first = fig14_run(**params)
    print(f"first invocation finished {len(first.rows)} grid points "
          "(each written to the store the moment it completed)")

    # A killed sweep would leave a partial store; re-invoking with the same
    # store serves finished points from disk.  Here the first run finished
    # everything, so the "resume" recomputes nothing at all.
    resumed = fig14_run(**params)
    assert resumed.rows == first.rows
    records = len(ResultStore(store_root))
    print(f"resume served all {records} stored points, recomputed 0; "
          "rows are identical\n")


def main() -> None:
    survive_a_worker_kill()
    with tempfile.TemporaryDirectory(prefix="repro-qec-store-") as tmp:
        resume_from_the_store(Path(tmp))
    print("Fault tolerance contract: retried shards replay the same "
          "(seed, shard_index)\nstreams, so no fault the policy absorbs can "
          "ever change a result.")


if __name__ == "__main__":
    main()
