"""Seeded sweeps reproduce frozen pins byte for byte, at any worker count.

fig11 and fig14 run through the sweep scheduler against fresh result stores
at workers 1 and 4, fixed-budget and Wilson-adaptive; the rows and the
sha256 of the compacted ``results.jsonl`` must match values frozen from the
earlier dual-path dispatcher, where the scheduled sweep and the legacy
pool-per-point sweep were checked byte-identical to each other.  The chaos
case SIGKILLs a worker mid-sweep on one specific point (the ``point <p>``
plan qualifier) and must still land on the fault-free pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.fig11 import run as fig11_run
from repro.experiments.fig14 import run as fig14_run
from repro.faults import FAULT_PLAN_ENV
from repro.store import ResultStore

# Frozen at commit 406f930 (the last commit with both dispatch paths), where
# every case below produced these rows and bytes under both schedules at
# workers 1 and 4.  Re-taken for ``CODE_VERSION_SALT`` v3 and again for v4:
# each time the fig14 rows and bytes moved with the memory noise stream (v3
# the 64-trial tile sampler, v4 the 2048-trial block sampler); the fig11
# rows and stored records did not move, only their keys (hence the bytes).
# Re-taken for v5 (blossom tie-breaks on windows past 8 events): no row or
# stored number moved, only the keys (hence both figures' bytes).
FIG14_FIXED_ROWS = [
    {
        "code_distance": 3,
        "physical_error_rate": 0.01,
        "trials": 60,
        "baseline_trials": 60,
        "clique_trials": 60,
        "baseline_logical_error_rate": 0.0,
        "clique_logical_error_rate": 0.016666666666666666,
        "baseline_ci_high": 0.060173930477932895,
        "clique_ci_high": 0.08855338226779479,
        "onchip_round_fraction": 1.0,
    },
    {
        "code_distance": 5,
        "physical_error_rate": 0.01,
        "trials": 60,
        "baseline_trials": 60,
        "clique_trials": 60,
        "baseline_logical_error_rate": 0.0,
        "clique_logical_error_rate": 0.0,
        "baseline_ci_high": 0.060173930477932895,
        "clique_ci_high": 0.060173930477932895,
        "onchip_round_fraction": 0.9722222222222222,
    },
]
FIG14_FIXED_SHA256 = "f549fbcbae99a566f0695a5cbb0bc4f61dac01bb351dfbfcbe65270dade2f3a4"

FIG14_ADAPTIVE_ROWS = [
    {
        "code_distance": 3,
        "physical_error_rate": 0.01,
        "trials": 60,
        "baseline_trials": 20,
        "clique_trials": 20,
        "baseline_logical_error_rate": 0.0,
        "clique_logical_error_rate": 0.0,
        "baseline_ci_high": 0.1611301254949332,
        "clique_ci_high": 0.1611301254949332,
        "onchip_round_fraction": 1.0,
    },
    {
        "code_distance": 5,
        "physical_error_rate": 0.01,
        "trials": 60,
        "baseline_trials": 20,
        "clique_trials": 20,
        "baseline_logical_error_rate": 0.0,
        "clique_logical_error_rate": 0.0,
        "baseline_ci_high": 0.1611301254949332,
        "clique_ci_high": 0.1611301254949332,
        "onchip_round_fraction": 0.9916666666666667,
    },
]
FIG14_ADAPTIVE_SHA256 = "91d63673a6364a87f479031cecc7ad770bfbd840a2d572727fd9f6945ea60737"

FIG11_FIXED_ROWS = [
    {
        "physical_error_rate": 0.001,
        "code_distance": 3,
        "cycles": 3000,
        "coverage_pct": 100.0,
        "coverage_ci_low_pct": 99.87211043351955,
        "coverage_ci_high_pct": 100.0,
        "offchip_fraction": 0.0,
    },
    {
        "physical_error_rate": 0.001,
        "code_distance": 5,
        "cycles": 3000,
        "coverage_pct": 100.0,
        "coverage_ci_low_pct": 99.87211043351955,
        "coverage_ci_high_pct": 100.0,
        "offchip_fraction": 0.0,
    },
    {
        "physical_error_rate": 0.01,
        "code_distance": 3,
        "cycles": 3000,
        "coverage_pct": 99.86666666666667,
        "coverage_ci_low_pct": 99.65764653199479,
        "coverage_ci_high_pct": 99.94813827370204,
        "offchip_fraction": 0.0013333333333332975,
    },
    {
        "physical_error_rate": 0.01,
        "code_distance": 5,
        "cycles": 3000,
        "coverage_pct": 98.66666666666667,
        "coverage_ci_low_pct": 98.189554089706,
        "coverage_ci_high_pct": 99.01930006558636,
        "offchip_fraction": 0.013333333333333308,
    },
]
FIG11_FIXED_SHA256 = "a2d6ab3b9c108f9875d537aa7232d9b7a275e4d0c78864cac658dd8bb55df75d"

FIG11_ADAPTIVE_ROWS = [
    {
        "physical_error_rate": 0.001,
        "code_distance": 3,
        "cycles": 500,
        "coverage_pct": 100.0,
        "coverage_ci_low_pct": 99.23753814690966,
        "coverage_ci_high_pct": 99.99999999999997,
        "offchip_fraction": 0.0,
    },
    {
        "physical_error_rate": 0.001,
        "code_distance": 5,
        "cycles": 500,
        "coverage_pct": 100.0,
        "coverage_ci_low_pct": 99.23753814690966,
        "coverage_ci_high_pct": 99.99999999999997,
        "offchip_fraction": 0.0,
    },
    {
        "physical_error_rate": 0.01,
        "code_distance": 3,
        "cycles": 500,
        "coverage_pct": 99.8,
        "coverage_ci_low_pct": 98.87590072528046,
        "coverage_ci_high_pct": 99.96468726904155,
        "offchip_fraction": 0.0020000000000000018,
    },
    {
        "physical_error_rate": 0.01,
        "code_distance": 5,
        "cycles": 500,
        "coverage_pct": 97.8,
        "coverage_ci_low_pct": 96.10387448516022,
        "coverage_ci_high_pct": 98.7672119832854,
        "offchip_fraction": 0.02200000000000002,
    },
]
FIG11_ADAPTIVE_SHA256 = "bbadb598fae423bb2ffd35345d09f5d139901d6a17b01cb14f60b59008baea79"

FIG14_PINS = {
    False: (FIG14_FIXED_ROWS, FIG14_FIXED_SHA256),
    True: (FIG14_ADAPTIVE_ROWS, FIG14_ADAPTIVE_SHA256),
}
FIG11_PINS = {
    False: (FIG11_FIXED_ROWS, FIG11_FIXED_SHA256),
    True: (FIG11_ADAPTIVE_ROWS, FIG11_ADAPTIVE_SHA256),
}


def compacted_bytes(root):
    ResultStore(root).compact()
    return (root / "results.jsonl").read_bytes()


def compacted_sha256(root):
    return hashlib.sha256(compacted_bytes(root)).hexdigest()


def run_fig14(store, workers, adaptive=False, **overrides):
    params = dict(
        trials=60,
        seed=17,
        distances=(3, 5),
        error_rates=(1e-2,),
        workers=workers,
        chunk_trials=10,
        store=store,
    )
    if adaptive:
        params.update(target_ci_width=0.2, min_trials=20)
    params.update(overrides)
    return fig14_run(**params)


def run_fig11(store, workers, adaptive=False):
    params = dict(
        cycles=3_000,
        seed=23,
        distances=(3, 5),
        error_rates=(1e-3, 1e-2),
        workers=workers,
        chunk_cycles=500,
        store=store,
    )
    if adaptive:
        params.update(target_ci_width=0.05)
    return fig11_run(**params)


class TestFig14ScheduleIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_rows_and_store_bytes_match_pin(self, tmp_path, workers, adaptive):
        rows, sha256 = FIG14_PINS[adaptive]
        result = run_fig14(tmp_path / "store", workers, adaptive)
        assert result.rows == rows
        assert compacted_sha256(tmp_path / "store") == sha256

    def test_scheduled_sweep_resumes_from_partial_store(self, tmp_path):
        # A store holding only the d=3 points (from a narrower earlier run)
        # must hit for those and schedule only the d=5 points.
        store = tmp_path / "store"
        run_fig14(store, 2, distances=(3,))
        full = run_fig14(store, 2)
        assert full.rows == FIG14_FIXED_ROWS
        assert compacted_sha256(store) == FIG14_FIXED_SHA256

    def test_auto_chunk_identity_across_workers(self, tmp_path):
        # chunk="auto" resolves per (budget, workers, distance) — the worker
        # count enters the *chunk*, so stores only match at equal workers;
        # pin that the resolved-auto run equals its explicit-chunk twin.
        auto = run_fig14(tmp_path / "auto", 2, chunk_trials="auto")
        # trials=60, workers=2 -> ceil(60/4) = 15 for both distances.
        explicit = run_fig14(tmp_path / "explicit", 2, chunk_trials=15)
        assert auto.rows == explicit.rows
        assert compacted_bytes(tmp_path / "auto") == compacted_bytes(
            tmp_path / "explicit"
        )


class TestFig11ScheduleIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_rows_and_store_bytes_match_pin(self, tmp_path, workers, adaptive):
        rows, sha256 = FIG11_PINS[adaptive]
        result = run_fig11(tmp_path / "store", workers, adaptive)
        assert result.rows == rows
        assert compacted_sha256(tmp_path / "store") == sha256


class TestScheduledChaos:
    def test_cross_point_kill_mid_sweep_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        # SIGKILL the worker running shard 2 of the *second* scheduled point
        # (d=3 hierarchy run) while shards of other points share the pool:
        # the broken pool is respawned, the shard replays its stream, and the
        # store converges to the fault-free pin.
        monkeypatch.setenv(FAULT_PLAN_ENV, "point 1 shard 2 attempt 0 kill")
        faulted = run_fig14(
            tmp_path / "faulted", 4, max_retries=3, shard_timeout=5.0
        )
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert faulted.rows == FIG14_FIXED_ROWS
        assert compacted_sha256(tmp_path / "faulted") == FIG14_FIXED_SHA256
