"""Chaos harness: the PR's end-to-end acceptance test.

A fig14 d=5 sharded sweep is run twice against separate result stores — once
fault-free and once under an injected plan combining every fault class the
executor handles (a worker exception, a SIGKILLed worker, a hung shard, and
one store line corrupted on disk after its durable write).  After the faulted
store is reopened (quarantining the damaged line), resumed (recomputing only
the quarantined point), and compacted, its ``results.jsonl`` must be
**byte-identical** to the fault-free store's compacted file — at every worker
count.

The tier-1 smoke runs d=5 at workers 1 and 2; ``REPRO_CHAOS=1`` unlocks the
heavier ``chaos``-marked variants (d=7, adaptive runs under the same plan).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.fig14 import run as fig14_run
from repro.faults import FAULT_PLAN_ENV
from repro.store import ResultStore, StoreCorruptionWarning

#: One of every fault class, concentrated on distinct shards: shard 1 sees a
#: worker exception, shard 2 a SIGKILL (a genuine BrokenProcessPool when
#: pooled), shard 3 hangs past the shard timeout, and the first record
#: written to the store is corrupted on disk after its durable write.
CHAOS_PLAN = (
    "shard 1 attempt 0 raise; shard 2 attempt 0 kill; "
    "shard 3 attempt 0 hang 10; store line 0 corrupt"
)

chaos_lane = pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="heavy chaos lane (set REPRO_CHAOS=1)",
)


def run_fig14(store, workers, distances=(5,), faulted=False, adaptive=False):
    params = dict(
        trials=60,
        seed=17,
        distances=distances,
        error_rates=(1e-2,),
        workers=workers,
        chunk_trials=10,  # 6 shards per decoder run, so the plan hits real shards
        store=store,
    )
    if adaptive:
        params.update(target_ci_width=0.2, min_trials=20)
    if faulted:
        params.update(max_retries=3, shard_timeout=1.0)
    return fig14_run(**params)


def store_bytes(root):
    return (root / "results.jsonl").read_bytes()


def assert_chaos_equivalence(tmp_path, monkeypatch, workers, plan=CHAOS_PLAN, **kwargs):
    """The full faulted-store lifecycle against a fault-free reference."""
    clean_root = tmp_path / "clean"
    faulted_root = tmp_path / "faulted"

    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    clean = run_fig14(clean_root, workers=workers, **kwargs)
    ResultStore(clean_root).compact()

    # Phase 1 — the faulted sweep: every injected fault is absorbed and the
    # returned rows already match the fault-free run's.
    monkeypatch.setenv(FAULT_PLAN_ENV, plan)
    faulted = run_fig14(faulted_root, workers=workers, faulted=True, **kwargs)
    assert faulted.rows == clean.rows

    # Phase 2 — reopen: the corrupted line (durable on disk, served from the
    # in-memory index during phase 1) is quarantined with a warning.
    monkeypatch.delenv(FAULT_PLAN_ENV)
    with pytest.warns(StoreCorruptionWarning, match="line 0 at byte 0"):
        reopened = ResultStore(faulted_root)
        quarantined = reopened.quarantined
    assert len(quarantined) == 1

    # Phase 3 — resume: only the quarantined point is recomputed.
    resumed = run_fig14(reopened, workers=workers, **kwargs)
    assert resumed.rows == clean.rows

    # Phase 4 — compact to canonical form: byte-identical to fault-free.
    summary = reopened.compact()
    assert summary["lines_quarantined"] == 1
    assert store_bytes(faulted_root) == store_bytes(clean_root)


class TestChaosSmoke:
    """Tier-1: the acceptance scenario at d=5."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_faulted_store_converges_to_fault_free_bytes(
        self, tmp_path, monkeypatch, workers
    ):
        assert_chaos_equivalence(tmp_path, monkeypatch, workers=workers)


@chaos_lane
@pytest.mark.chaos
class TestChaosLane:
    """Heavier variants behind REPRO_CHAOS=1."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_d7_fixed_budget(self, tmp_path, monkeypatch, workers):
        assert_chaos_equivalence(
            tmp_path, monkeypatch, workers=workers, distances=(7,)
        )

    def test_d5_adaptive_with_checkpoint_truncation(self, tmp_path, monkeypatch):
        # The adaptive variant additionally truncates the first mid-point
        # checkpoint save; the CRC envelope rejects it on load, so resume
        # degrades to a clean recompute and the bytes still converge.
        assert_chaos_equivalence(
            tmp_path,
            monkeypatch,
            workers=2,
            adaptive=True,
            plan=CHAOS_PLAN + "; checkpoint truncate 0",
        )
