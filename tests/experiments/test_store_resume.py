"""Store-backed sweep resume: the acceptance tests of the result store.

Covers the two headline behaviours:

* a fig14 paper-scale-shaped sweep killed mid-run and re-invoked with the
  same store recomputes only the missing points (scheduled points are
  counted);
* a fully-warm fig11 re-run produces byte-identical rows to the cold run
  while invoking zero Monte-Carlo kernels;

plus the mid-point Wilson-wave checkpointing of adaptive runs.
"""

from __future__ import annotations

import pytest

import repro.experiments.fig14 as fig14_module
import repro.experiments.fig16 as fig16_module
from repro.experiments.registry import run_experiment
from repro.simulation import CoverageKernel, SweepPoint, SweepScheduler
from repro.simulation.monte_carlo import until_wilson
from repro.store import ResultStore


class _BernoulliKernel:
    """Minimal shard kernel: (successes, trials) counts of a biased coin.

    Local clone of ``tests/simulation/shard_kernels.BernoulliKernel`` — these
    tests run every shard sequentially (``workers=1``), so picklability and
    the cross-directory import it would require don't matter here.
    """

    def __init__(self, rate: float) -> None:
        self.rate = rate

    def __call__(self, n_trials, rng):
        return (int((rng.random(n_trials) < self.rate).sum()), n_trials)


def bernoulli_successes(counts):
    return counts[0]


def run_adaptive(kernel, stop, checkpoint=None, seed=17, chunk_trials=50, workers=1):
    """One adaptive point through the sweep scheduler; returns its outcome."""
    point = SweepPoint(
        "point",
        kernel,
        stop.max_trials,
        seed=seed,
        chunk_trials=chunk_trials,
        stop=stop,
        successes_of=bernoulli_successes,
        checkpoint=checkpoint,
    )
    return SweepScheduler(workers=workers).run([point])["point"]


FIG14_PARAMS = dict(
    scale="paper",
    trials=24,
    distances=(3, 5),
    error_rates=(1e-2, 2e-2),
    workers=1,
    seed=11,
)
FIG14_POINTS = 2 * 2 * 2  # distances x rates x decoders

FIG11_PARAMS = dict(
    cycles=400,
    distances=(3, 5),
    error_rates=(1e-2,),
    seed=5,
)


class _Killed(RuntimeError):
    """Stands in for SIGKILL/Ctrl-C in the mid-run kill tests."""


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` (a module function or a class method) to count
    invocations; coverage runs with no ``workers`` are in-process, so kernel
    calls are seen here."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _counting_points(monkeypatch, kill_after=None):
    """Wrap fig14's ``memory_point`` to count the points a sweep schedules.

    With ``kill_after``, the persistence hook of every scheduled point dies
    once that many points have been stored — a kill between two points of
    a running sweep.  Returns ``(scheduled, stored)`` counters.
    """
    scheduled, stored = [], []
    original = fig14_module.memory_point

    def wrapper(*args, on_complete, **kwargs):
        scheduled.append(1)

        def persist(result):
            if kill_after is not None and len(stored) >= kill_after:
                raise _Killed(f"killed after {kill_after} stored points")
            stored.append(1)
            on_complete(result)

        return original(*args, on_complete=persist, **kwargs)

    monkeypatch.setattr(fig14_module, "memory_point", wrapper)
    return scheduled, stored


class TestFig14KilledSweepResume:
    def test_rerun_recomputes_only_missing_points(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        killed_after = 3

        _, stored = _counting_points(monkeypatch, kill_after=killed_after)
        with pytest.raises(_Killed):
            run_experiment("fig14", store=str(store_dir), **FIG14_PARAMS)
        assert len(stored) == killed_after
        assert len(ResultStore(store_dir)) == killed_after

        monkeypatch.undo()
        scheduled, _ = _counting_points(monkeypatch)
        resumed = run_experiment("fig14", store=str(store_dir), **FIG14_PARAMS)
        assert len(scheduled) == FIG14_POINTS - killed_after
        assert len(resumed.rows) == FIG14_POINTS // 2

        # The resumed sweep is indistinguishable from a never-interrupted one.
        monkeypatch.undo()
        clean = run_experiment("fig14", **FIG14_PARAMS)
        assert resumed.rows == clean.rows

    def test_force_recomputes_every_point(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        run_experiment("fig14", store=str(store_dir), **FIG14_PARAMS)
        scheduled, _ = _counting_points(monkeypatch)
        run_experiment("fig14", store=str(store_dir), force=True, **FIG14_PARAMS)
        assert len(scheduled) == FIG14_POINTS


#: A default fig14 call's keys and store bytes, frozen from the same call
#: with an explicit ``engine="sharded"`` at the last commit that still had
#: the ``engine`` knob (dropping the knob moved no key and no stored
#: number), re-taken for ``CODE_VERSION_SALT`` v3 and v4, and for v5 (keys
#: only: the stored numbers did not move).  The cascade point keys as
#: ``"decoder": "Clique+MWPM"``, ``"fallback": "mwpm"``; both entries stayed
#: when the off-chip tier stopped being selectable, so these did not move.
DEFAULT_FIG14_PARAMS = dict(
    trials=600, distances=(3,), error_rates=(3e-2,), seed=5, workers=1
)
DEFAULT_FIG14_KEYS = [
    "488e0c0a7722fa4a01a4585dba7b28c40376cc03cc4a97105eb1398d2658faac",
    "3fa873d39a5c5e975877a83bea5d7fb470368a82e9e00f7fc53498c9f4454a66",
]
DEFAULT_FIG14_STORE_SHA256 = (
    "a00c7a3cea7c85bc9f71e265ee7a6507ba57baf739f6c91b310e53499ca2af24"
)


def _store_lines(store_dir):
    import json

    results = store_dir / "results.jsonl"
    return [json.loads(line) for line in results.read_text().splitlines()]


def _store_sha256(store_dir):
    import hashlib

    return hashlib.sha256((store_dir / "results.jsonl").read_bytes()).hexdigest()


class TestDefaultFig14KeyPin:
    def test_default_call_keys_like_the_explicit_sharded_call(self, tmp_path):
        store_dir = tmp_path / "store"
        result = run_experiment("fig14", store=str(store_dir), **DEFAULT_FIG14_PARAMS)
        assert [line["key"] for line in _store_lines(store_dir)] == DEFAULT_FIG14_KEYS
        assert _store_sha256(store_dir) == DEFAULT_FIG14_STORE_SHA256
        assert result.rows[0]["baseline_logical_error_rate"] == 0.075
        assert result.rows[0]["clique_logical_error_rate"] == 0.07666666666666666


class TestFig11WarmRerun:
    def test_warm_rerun_is_byte_identical_with_zero_kernel_calls(
        self, tmp_path, monkeypatch
    ):
        store_dir = tmp_path / "store"
        calls = _counting(monkeypatch, CoverageKernel, "__call__")
        cold = run_experiment("fig11", store=str(store_dir), **FIG11_PARAMS)
        assert len(calls) > 0

        calls.clear()
        warm = run_experiment("fig11", store=str(store_dir), **FIG11_PARAMS)
        assert calls == []
        assert warm.rows == cold.rows
        assert warm.format_table().encode() == cold.format_table().encode()

    def test_store_misses_across_different_configs(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        run_experiment("fig11", store=str(store_dir), **FIG11_PARAMS)
        calls = _counting(monkeypatch, CoverageKernel, "__call__")
        changed = dict(FIG11_PARAMS, cycles=FIG11_PARAMS["cycles"] + 100)
        run_experiment("fig11", store=str(store_dir), **changed)
        # Every point recomputed under the new config, one shard each.
        assert len(calls) == 2

    def test_fig12_and_fig11_do_not_share_entries(self, tmp_path):
        # Same coverage computation shape, but the experiment id is part of
        # the key (and the default seeds differ): entries must not collide.
        store_dir = tmp_path / "store"
        run_experiment("fig11", store=str(store_dir), **FIG11_PARAMS)
        run_experiment("fig12", store=str(store_dir), **FIG11_PARAMS)
        assert len(ResultStore(store_dir)) == 4


class TestFig16WarmRerun:
    PARAMS = dict(
        operating_points=((1e-2, 3),),
        percentiles=(90.0, 99.0),
        coverage_cycles=400,
        program_cycles=400,
        seed=3,
    )

    def test_warm_rerun_skips_coverage_and_stall_sims(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        coverage_calls = _counting(monkeypatch, CoverageKernel, "__call__")
        stall_calls = _counting(monkeypatch, fig16_module, "StallSimulator")
        cold = run_experiment("fig16", store=str(store_dir), **self.PARAMS)
        assert len(coverage_calls) > 0
        assert len(stall_calls) > 0

        coverage_calls.clear()
        stall_calls.clear()
        warm = run_experiment("fig16", store=str(store_dir), **self.PARAMS)
        assert coverage_calls == []
        assert stall_calls == []
        assert warm.format_table() == cold.format_table()


class _CountingKernel:
    """Sequential-only kernel wrapper counting per-shard invocations."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = []

    def __call__(self, n_trials, rng):
        self.calls.append(n_trials)
        return self.kernel(n_trials, rng)


class _KillingCheckpoint:
    """Checkpoint that dies after persisting ``kill_after_saves`` waves."""

    def __init__(self, inner, kill_after_saves):
        self.inner = inner
        self.kill_after_saves = kill_after_saves
        self.saves = 0

    def load(self):
        return self.inner.load()

    def save(self, state):
        self.inner.save(state)
        self.saves += 1
        if self.saves >= self.kill_after_saves:
            raise _Killed(f"killed after wave {self.saves}")

    def clear(self):
        self.inner.clear()


class TestAdaptiveWaveCheckpointing:
    KERNEL = _BernoulliKernel(0.3)
    STOP = dict(target_width=0.05, min_trials=100, max_trials=5000)
    RUN = dict(seed=17, chunk_trials=50, workers=1)

    def _stop(self):
        return until_wilson(**self.STOP)

    def test_killed_adaptive_run_resumes_with_identical_counts(self, tmp_path):
        uninterrupted = run_adaptive(self.KERNEL, self._stop(), **self.RUN)
        assert uninterrupted.trials > self.STOP["min_trials"]  # multiple waves

        checkpoint = ResultStore(tmp_path).checkpoint("point")
        with pytest.raises(_Killed):
            run_adaptive(
                self.KERNEL,
                self._stop(),
                checkpoint=_KillingCheckpoint(checkpoint, kill_after_saves=1),
                **self.RUN,
            )
        assert checkpoint.load() is not None  # wave 1 survived the kill

        counting = _CountingKernel(self.KERNEL)
        resumed = run_adaptive(counting, self._stop(), checkpoint=checkpoint, **self.RUN)
        assert resumed == uninterrupted
        # Only the post-kill waves ran: strictly fewer trials than the total.
        assert 0 < sum(counting.calls) < uninterrupted.trials

    def test_completed_checkpoint_is_resume_idempotent(self, tmp_path):
        # An adaptive point deliberately leaves the final state behind
        # (the owner clears it only after persisting the result, so a kill
        # in between costs nothing): re-running from a completed checkpoint
        # must return the identical result without spawning a single shard.
        checkpoint = ResultStore(tmp_path).checkpoint("point")
        first = run_adaptive(self.KERNEL, self._stop(), checkpoint=checkpoint, **self.RUN)
        assert checkpoint.load() is not None
        counting = _CountingKernel(self.KERNEL)
        rerun = run_adaptive(counting, self._stop(), checkpoint=checkpoint, **self.RUN)
        assert rerun == first
        assert counting.calls == []

    def test_sweep_cache_clears_checkpoint_only_after_persisting(self, tmp_path):
        # Through the store layer the lifecycle completes: the point's
        # checkpoint survives the adaptive run itself and is removed by
        # SweepCache.point once the result is durably in results.jsonl.
        from repro.store import SweepCache

        store = ResultStore(tmp_path)
        cache = SweepCache(store, "adaptive-test")
        config = {"kind": "bernoulli"}

        def compute():
            run = run_adaptive(
                self.KERNEL,
                self._stop(),
                checkpoint=cache.checkpoint(config, self.RUN["seed"]),
                **self.RUN,
            )
            # Mid-compute (after convergence, before put) the state is still
            # on disk — this is the crash window the ordering protects.
            assert cache.checkpoint(config, self.RUN["seed"]).load() is not None
            from repro.simulation.coverage import CoverageResult

            return CoverageResult(1e-2, 3, 2, run.trials, run.successes, 0)

        cache.point(config, self.RUN["seed"], compute)
        assert cache.checkpoint(config, self.RUN["seed"]).load() is None

    def test_checkpoint_with_wrong_seed_is_ignored(self, tmp_path):
        checkpoint = ResultStore(tmp_path).checkpoint("point")
        with pytest.raises(_Killed):
            run_adaptive(
                self.KERNEL,
                self._stop(),
                checkpoint=_KillingCheckpoint(checkpoint, kill_after_saves=1),
                **self.RUN,
            )
        other_run = dict(self.RUN, seed=self.RUN["seed"] + 1)
        counting = _CountingKernel(self.KERNEL)
        fresh = run_adaptive(counting, self._stop(), checkpoint=checkpoint, **other_run)
        reference = run_adaptive(self.KERNEL, self._stop(), **other_run)
        assert fresh == reference
        assert sum(counting.calls) == reference.trials  # started from scratch

    def test_checkpoint_with_wrong_chunk_is_ignored(self, tmp_path):
        checkpoint = ResultStore(tmp_path).checkpoint("point")
        with pytest.raises(_Killed):
            run_adaptive(
                self.KERNEL,
                self._stop(),
                checkpoint=_KillingCheckpoint(checkpoint, kill_after_saves=1),
                **self.RUN,
            )
        other_run = dict(self.RUN, chunk_trials=25)
        fresh = run_adaptive(self.KERNEL, self._stop(), checkpoint=checkpoint, **other_run)
        reference = run_adaptive(self.KERNEL, self._stop(), **other_run)
        assert fresh == reference

    def test_fig14_adaptive_store_rerun_reuses_points(self, tmp_path):
        store_dir = tmp_path / "store"
        params = dict(
            trials=400,
            distances=(3,),
            error_rates=(1e-2,),
            adaptive=True,
            workers=1,
            seed=7,
        )
        cold = run_experiment("fig14", store=str(store_dir), **params)
        warm = run_experiment("fig14", store=str(store_dir), **params)
        assert warm.rows == cold.rows
        # Adaptive points that completed leave no checkpoints behind.
        checkpoints_dir = tmp_path / "store" / "checkpoints"
        assert not checkpoints_dir.exists() or not any(checkpoints_dir.iterdir())
