"""Sweep scheduler: byte-equality with the manual shard merge, by construction.

The core claim under test: :class:`~repro.simulation.SweepScheduler` only
changes *when* shards execute — never which shards exist, which RNG streams
they draw, or the order partials merge — so every scheduled point equals the
manual per-shard ``kernel(size, shard_rng(seed, i))`` merge (wave by wave
for adaptive points) exactly, at any worker count, checkpoints included.
Plus the satellite contracts: one pool per process (not per point or per
sweep) while runs end cleanly, a pool capped at the shard count for
fixed-budget sweeps, the in-flight cap, ``chunk="auto"`` resolution, the
executor's dynamic task feed, and the point-qualified fault-plan grammar.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.codes.rotated_surface import get_code
from repro.exceptions import ConfigurationError, ShardRetriesExhaustedError
from repro.experiments.fig14 import _mwpm_factory
from repro.faults import (
    FaultInjector,
    FaultPolicy,
    FaultReport,
    ShardExecutor,
    drop_idle_pool,
    parse_fault_plan,
    pool_construction_count,
)
from repro.faults import executor as executor_module
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import shard_rng
from repro.simulation import (
    SweepPoint,
    SweepScheduler,
    memory_point,
    resolve_auto_chunk,
    simulate_clique_coverage,
    until_wilson,
    wilson_interval,
)
from shard_kernels import (
    BernoulliKernel,
    SleepyKernel,
    adaptive_oracle,
    bernoulli_successes,
    shard_oracle,
)


class RecordingCheckpoint:
    """In-memory checkpoint capturing every saved state, in order."""

    def __init__(self, state=None):
        self.saves = []
        self.state = state

    def save(self, state):
        self.saves.append(state)
        self.state = state

    def load(self):
        return self.state

    def clear(self):
        self.state = None


def fixed_point(point_id, rate, trials, seed, chunk):
    return SweepPoint(
        point_id=point_id,
        kernel=BernoulliKernel(rate),
        trials=trials,
        seed=seed,
        chunk_trials=chunk,
    )


def adaptive_point(point_id, rate, stop, seed, chunk, checkpoint=None):
    return SweepPoint(
        point_id=point_id,
        kernel=BernoulliKernel(rate),
        trials=stop.max_trials,
        seed=seed,
        chunk_trials=chunk,
        stop=stop,
        successes_of=bernoulli_successes,
        checkpoint=checkpoint,
    )


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_fixed_point_matches_manual_shard_merge(self, workers):
        expected = shard_oracle(BernoulliKernel(0.3), 370, 11, 40)
        outcome = SweepScheduler(workers=workers).run(
            [fixed_point("p", 0.3, 370, 11, 40)]
        )["p"]
        assert outcome.value == expected
        assert outcome.trials == 370
        assert outcome.shards == 10  # 9 full + 1 remainder shard
        assert outcome.skipped_shards == 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_adaptive_point_matches_manual_wave_merge(self, workers):
        stop = until_wilson(0.08, min_trials=60, max_trials=2000)
        merged, trials, shards, _ = adaptive_oracle(
            BernoulliKernel(0.2), stop, bernoulli_successes, 5, 25
        )
        outcome = SweepScheduler(workers=workers).run(
            [adaptive_point("p", 0.2, stop, 5, 25)]
        )["p"]
        assert outcome.value == merged
        assert outcome.trials == trials
        assert outcome.successes == merged[0]
        assert outcome.interval == wilson_interval(merged[0], trials, stop.z)
        assert outcome.shards == shards

    @pytest.mark.parametrize("workers", [1, 4])
    def test_interleaved_mixed_sweep_matches_sequential_points(self, workers):
        stop = until_wilson(0.1, min_trials=50, max_trials=1000)
        points = [
            fixed_point("a", 0.4, 300, 1, 30),
            adaptive_point("b", 0.15, stop, 2, 20),
            fixed_point("c", 0.05, 155, 3, 50),
        ]
        results = SweepScheduler(workers=workers).run(points)
        assert results["a"].value == shard_oracle(BernoulliKernel(0.4), 300, 1, 30)
        expected_b, trials_b, _, _ = adaptive_oracle(
            BernoulliKernel(0.15), stop, bernoulli_successes, 2, 20
        )
        assert results["b"].value == expected_b
        assert results["b"].trials == trials_b
        assert results["c"].value == shard_oracle(BernoulliKernel(0.05), 155, 3, 50)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_adaptive_checkpoint_states_match_manual_waves(self, workers):
        # One state per wave, in the shared checkpoint layout, carrying the
        # manual merge's counts and shard cursor at every wave boundary.
        stop = until_wilson(0.08, min_trials=60, max_trials=2000)
        _, _, _, states = adaptive_oracle(
            BernoulliKernel(0.2), stop, bernoulli_successes, 5, 25
        )
        scheduled = RecordingCheckpoint()
        SweepScheduler(workers=workers).run(
            [adaptive_point("p", 0.2, stop, 5, 25, checkpoint=scheduled)]
        )
        assert len(states) > 1
        assert scheduled.saves == states

    def test_adaptive_point_resumes_from_checkpoint(self):
        stop = until_wilson(0.08, min_trials=60, max_trials=2000)
        full = RecordingCheckpoint()
        expected = SweepScheduler(workers=1).run(
            [adaptive_point("p", 0.2, stop, 5, 25, checkpoint=full)]
        )["p"]
        # Resume from the first saved wave: the tail must replay identically.
        resumed = SweepScheduler(workers=2).run(
            [
                adaptive_point(
                    "p", 0.2, stop, 5, 25, checkpoint=RecordingCheckpoint(full.saves[0])
                )
            ]
        )["p"]
        assert resumed.value == expected.value
        assert resumed.trials == expected.trials
        assert resumed.interval == expected.interval


class TestSchedulerPoolReuse:
    def test_one_pool_for_the_whole_sweep(self):
        points = [fixed_point(str(i), 0.2, 120, i, 30) for i in range(3)]
        before = pool_construction_count()
        SweepScheduler(workers=2).run(points)
        assert pool_construction_count() - before == 1

    def test_separate_scheduler_runs_share_one_pool(self):
        before = pool_construction_count()
        for i in range(3):
            SweepScheduler(workers=2).run([fixed_point("p", 0.2, 120, i, 30)])
        assert pool_construction_count() - before == 1

    def test_smaller_runs_take_a_larger_idle_pool(self):
        # A fixed-budget run's pool is capped at its shard count, so runs
        # of 8, 2, 8, 2 and 8 shards ask for 4, 2, 4, 2 and 4 workers; the
        # four-worker pool built first serves them all.
        shards = [8, 2, 8, 2, 8]
        points = [fixed_point("p", 0.2, 30 * n, n, 30) for n in shards]
        before = pool_construction_count()
        rows = [SweepScheduler(workers=4).run([point])["p"] for point in points]
        assert pool_construction_count() - before == 1
        assert idle_pool()[0] == 4
        serial = [SweepScheduler(workers=1).run([point])["p"] for point in points]
        assert [row.value for row in rows] == [row.value for row in serial]

    def test_sequential_path_builds_no_pool(self):
        before = pool_construction_count()
        SweepScheduler(workers=1).run([fixed_point("p", 0.2, 120, 7, 30)])
        assert pool_construction_count() - before == 0


def idle_pool():
    """The process's idle pool, ``(workers, pool)``, or ``None``."""
    return executor_module._IDLE_POOL


def cold_rows(points):
    """Rows of a sweep run on a freshly built pool."""
    drop_idle_pool()
    return {k: v.value for k, v in SweepScheduler(workers=2).run(points).items()}


class TestIdlePoolLifecycle:
    def test_clean_run_leaves_its_pool_idle(self):
        assert idle_pool() is None
        SweepScheduler(workers=2).run([fixed_point("p", 0.2, 120, 1, 30)])
        assert idle_pool()[0] == 2

    def test_drop_idle_pool_joins_its_workers(self):
        SweepScheduler(workers=2).run([fixed_point("p", 0.2, 120, 1, 30)])
        processes = list(idle_pool()[1]._processes.values())
        drop_idle_pool()
        assert idle_pool() is None
        assert not any(process.is_alive() for process in processes)

    def test_other_worker_count_replaces_the_idle_pool(self):
        before = pool_construction_count()
        SweepScheduler(workers=2).run([fixed_point("p", 0.2, 120, 1, 30)])
        two = idle_pool()[1]
        workers_of_two = list(two._processes.values())
        SweepScheduler(workers=3).run([fixed_point("p", 0.2, 120, 1, 30)])
        assert idle_pool()[0] == 3
        assert pool_construction_count() - before == 2
        # The two-worker pool was shut down and joined, not leaked.
        assert two._shutdown_thread
        assert not any(process.is_alive() for process in workers_of_two)
        SweepScheduler(workers=3).run([fixed_point("p", 0.2, 120, 2, 30)])
        assert pool_construction_count() - before == 2

    def test_broken_pool_is_not_reused(self):
        points = [fixed_point(str(i), 0.25, 120, 60 + i, 30) for i in range(2)]
        report = FaultReport()
        SweepScheduler(
            workers=2,
            faults=FaultPolicy(max_retries=2, backoff_base=0.0),
            fault_report=report,
            fault_injector=FaultInjector.from_text("shard 0 attempt 0 kill"),
        ).run(points)
        assert report.pool_respawns >= 1
        assert idle_pool() is None
        before = pool_construction_count()
        rows = {k: v.value for k, v in SweepScheduler(workers=2).run(points).items()}
        assert pool_construction_count() - before == 1
        assert rows == cold_rows(points)

    def test_exhausted_sweep_is_not_reused(self):
        points = [fixed_point(str(i), 0.25, 120, 70 + i, 30) for i in range(2)]
        SweepScheduler(workers=2).run(points)
        with pytest.raises(ShardRetriesExhaustedError):
            SweepScheduler(
                workers=2,
                faults=FaultPolicy(max_retries=0),
                fault_injector=FaultInjector.from_text("shard 1 attempts 0-9 raise"),
            ).run(points)
        assert idle_pool() is None
        before = pool_construction_count()
        rows = {k: v.value for k, v in SweepScheduler(workers=2).run(points).items()}
        assert pool_construction_count() - before == 1
        assert rows == cold_rows(points)


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    """Process pool that records the most futures it ever had unfinished."""

    peak = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._live = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self._live = [f for f in self._live if not f.done()] + [future]
        CountingPool.peak = max(CountingPool.peak, len(self._live))
        return future


class TestInFlightCap:
    @pytest.fixture
    def counting(self, monkeypatch):
        CountingPool.peak = 0
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        return CountingPool

    @pytest.mark.parametrize(
        "shard_timeout, cap", [(None, 4), (30.0, 2)], ids=["no-timeout", "timeout"]
    )
    def test_in_flight_shards(self, counting, shard_timeout, cap):
        # Shards sleep, so none finishes before the first refill: the peak is
        # exactly the cap.  A deadline is stamped at submit, so an armed
        # timeout keeps the cap at one shard per worker.
        kernel = SleepyKernel(0.3, seconds=0.2)
        tasks = [(kernel, 10, 5, index) for index in range(8)]
        policy = FaultPolicy(max_retries=0, shard_timeout=shard_timeout)
        with ShardExecutor(workers=2, policy=policy) as executor:
            results = executor.run_dynamic(tasks)
        assert counting.peak == cap
        plain = BernoulliKernel(0.3)
        assert results == [plain(10, shard_rng(5, index)) for index in range(8)]


class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """Process pool that records the ``max_workers`` it was built with."""

    sizes: list = []

    def __init__(self, max_workers=None, **kwargs):
        RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


class TestSchedulerPoolSizing:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        RecordingPool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return RecordingPool.sizes

    def test_one_shard_memory_run_builds_no_pool(self):
        before = pool_construction_count()
        point = memory_point(
            "p",
            get_code(5),
            PhenomenologicalNoise(1e-2),
            _mwpm_factory,
            trials=100,
            seed=3,
            chunk_trials=500,
        )
        result = SweepScheduler(workers=4).run([point])["p"]
        assert pool_construction_count() - before == 0
        assert result.trials == 100

    def test_one_shard_coverage_run_builds_no_pool(self):
        before = pool_construction_count()
        result = simulate_clique_coverage(
            get_code(5),
            PhenomenologicalNoise(1e-2),
            1000,
            rng=3,
            workers=4,
            chunk_cycles=5000,
        )
        assert pool_construction_count() - before == 0
        assert result.cycles == 1000

    def test_fixed_budget_pool_is_capped_at_total_shards(self, pool_sizes):
        points = [fixed_point("a", 0.2, 60, 1, 30), fixed_point("b", 0.2, 30, 2, 30)]
        results = SweepScheduler(workers=8).run(points)
        assert pool_sizes == [3]
        assert results["a"].value == shard_oracle(BernoulliKernel(0.2), 60, 1, 30)

    def test_adaptive_sweep_keeps_the_full_pool(self, pool_sizes):
        # The first wave is one shard, but later waves grow: no cap.
        stop = until_wilson(0.05, min_trials=30, max_trials=240)
        SweepScheduler(workers=3).run([adaptive_point("p", 0.3, stop, 4, 30)])
        assert pool_sizes == [3]


class TestSchedulerValidation:
    def test_duplicate_point_ids_rejected(self):
        points = [fixed_point("p", 0.2, 100, 1, 50), fixed_point("p", 0.3, 100, 2, 50)]
        with pytest.raises(ConfigurationError, match="unique"):
            SweepScheduler(workers=1).run(points)

    def test_adaptive_point_requires_successes_of(self):
        point = SweepPoint(
            point_id="p",
            kernel=BernoulliKernel(0.2),
            trials=100,
            seed=1,
            chunk_trials=50,
            stop=until_wilson(0.1, min_trials=50, max_trials=100),
        )
        with pytest.raises(ConfigurationError, match="successes_of"):
            SweepScheduler(workers=1).run([point])

    def test_empty_sweep_is_a_no_op(self):
        assert SweepScheduler(workers=4).run([]) == {}


class TestAutoChunk:
    def test_short_high_distance_point_still_fans_out(self):
        # d=11 paper budget: 1000 trials at 4 workers -> 8 shards of 125.
        assert resolve_auto_chunk(1_000, 4, 11) == 125

    def test_large_low_distance_point_keeps_big_shards(self):
        # d=3 paper budget: the per-distance cap (4*default/3) exceeds the
        # default, so the default 500-trial shard size wins.
        assert resolve_auto_chunk(20_000, 4, 3) == 500

    @pytest.mark.parametrize("trials", [400, 1_000, 5_000])
    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("distance", [3, 7, 11, 21])
    def test_at_least_two_shards_per_worker(self, trials, workers, distance):
        from repro.simulation.shard import plan_shards

        chunk = resolve_auto_chunk(trials, workers, distance)
        assert len(plan_shards(trials, chunk)) >= 2 * workers

    def test_floor_bounds_the_distance_scaling(self):
        # Even at extreme distances the chunk never collapses below the floor
        # (per-shard decoder construction must stay amortised).
        assert resolve_auto_chunk(100_000, 2, 101) >= 50

    def test_tiny_budget_degenerates_to_one_trial_chunks(self):
        assert resolve_auto_chunk(1, 8, 3) == 1

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ConfigurationError):
            resolve_auto_chunk(0, 4, 3)


class TestRunDynamic:
    def test_on_complete_feeds_follow_up_tasks(self):
        kernel = BernoulliKernel(0.3)
        followed = []

        def on_complete(index, outcome):
            followed.append((index, outcome))
            if index == 0:
                # One follow-up wave appended mid-run: shard index 2 of the
                # same stream family.
                return [(kernel, 40, 9, 2)]
            return None

        with ShardExecutor(workers=2, policy=FaultPolicy(max_retries=0)) as executor:
            results = executor.run_dynamic(
                [(kernel, 40, 9, 0), (kernel, 40, 9, 1)], on_complete
            )
        assert len(results) == 3
        assert sorted(index for index, _ in followed) == [0, 1, 2]
        # Every task's result is the same pure function of (seed, shard index)
        # the manual shard call computes.
        assert results == [kernel(40, shard_rng(9, index)) for index in range(3)]

    def test_sequential_and_pooled_feeds_agree(self):
        kernel = BernoulliKernel(0.2)

        def feeder(index, outcome):
            return [(kernel, 30, 4, 3)] if index == 1 else None

        tasks = [(kernel, 30, 4, 0), (kernel, 30, 4, 1), (kernel, 30, 4, 2)]
        with ShardExecutor(workers=1, policy=FaultPolicy(max_retries=0)) as seq:
            sequential = seq.run_dynamic(list(tasks), feeder)
        with ShardExecutor(workers=3, policy=FaultPolicy(max_retries=0)) as pooled:
            parallel = pooled.run_dynamic(list(tasks), feeder)
        assert sequential == parallel


class TestPointQualifiedFaults:
    def test_grammar_parses_point_prefix(self):
        plan = parse_fault_plan("point 1 shard 0 raise; shard 2 kill")
        qualified, wildcard = plan.shard_faults
        assert qualified.point_index == 1
        assert qualified.shard_index == 0
        assert wildcard.point_index is None

    def test_qualified_fault_matches_only_its_point(self):
        plan = parse_fault_plan("point 1 shard 0 attempt 0 raise")
        fault = plan.shard_faults[0]
        assert fault.matches(0, 0, point_index=1)
        assert not fault.matches(0, 0, point_index=0)
        assert not fault.matches(0, 0, point_index=None)

    def test_unqualified_fault_matches_every_point(self):
        plan = parse_fault_plan("shard 3 attempt 0 kill")
        fault = plan.shard_faults[0]
        assert fault.matches(3, 0, point_index=0)
        assert fault.matches(3, 0, point_index=7)
        assert fault.matches(3, 0)

    def test_scheduled_sweep_recovers_point_targeted_fault(self):
        # A raise pinned to point 1's shard 0: the retry replays the stream
        # bit-identically, so the whole sweep equals the fault-free one.
        points = [fixed_point(str(i), 0.25, 90, 40 + i, 30) for i in range(3)]
        clean = SweepScheduler(workers=2).run(
            [fixed_point(str(i), 0.25, 90, 40 + i, 30) for i in range(3)]
        )
        injector = FaultInjector(parse_fault_plan("point 1 shard 0 attempt 0 raise"))
        faulted = SweepScheduler(
            workers=2,
            faults=FaultPolicy(max_retries=2),
            fault_injector=injector,
        ).run(points)
        assert {k: v.value for k, v in faulted.items()} == {
            k: v.value for k, v in clean.items()
        }
