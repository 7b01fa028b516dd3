"""Fault-tolerant sharded execution: recovery is invisible in the results.

Every test here leans on the seeding contract: a retried shard replays the
same ``(seed, shard_index)`` stream bit-identically, so any fault the
executor absorbs — worker exceptions, SIGKILLed workers (a genuine
``BrokenProcessPool``), hung shards, repeated pool breaks degrading to
sequential execution — must leave the merged counts exactly equal to a
fault-free run's.
"""

from __future__ import annotations

import concurrent.futures
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import (
    ConfigurationError,
    FaultToleranceError,
    ShardRetriesExhaustedError,
)
from repro.experiments.fig14 import _mwpm_factory
from repro.faults import (
    DegradedExecutionWarning,
    FaultInjector,
    FaultPlan,
    FaultPolicy,
    FaultReport,
    ShardFault,
)
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.monte_carlo import until_wilson
from repro.simulation.scheduler import SweepScheduler, memory_point
from repro.store import AdaptiveCheckpoint, to_dict
from shard_kernels import BernoulliKernel, bernoulli_successes, run_point

#: No-sleep policy for tests: retries are instant, results unaffected.
FAST = dict(backoff_base=0.0)


def run_counts(workers, **kwargs):
    return run_point(BernoulliKernel(0.3), 200, 99, 25, workers=workers, **kwargs).value


@pytest.fixture(scope="module")
def clean_counts():
    return run_counts(workers=1)


class TestRetryEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_injected_exceptions_and_kills_do_not_change_counts(
        self, workers, clean_counts
    ):
        report = FaultReport()
        faulted = run_counts(
            workers=workers,
            faults=FaultPolicy(max_retries=3, **FAST),
            fault_report=report,
            fault_injector=FaultInjector.from_text(
                "shard 1 attempt 0 raise; shard 3 attempts 0-1 raise; "
                "shard 5 attempt 0 kill"
            ),
        )
        assert faulted == clean_counts
        assert report.faults_handled > 0

    def test_ambient_env_plan_is_honoured(self, monkeypatch, clean_counts):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "shard 2 attempt 0 raise")
        report = FaultReport()
        faulted = run_counts(
            workers=1, faults=FaultPolicy(**FAST), fault_report=report
        )
        assert faulted == clean_counts
        assert report.retries == 1

    def test_retry_budget_exhaustion_raises_with_shard_coordinates(self):
        with pytest.raises(ShardRetriesExhaustedError) as info:
            run_counts(
                workers=1,
                faults=FaultPolicy(max_retries=1, **FAST),
                fault_injector=FaultInjector.from_text("shard 2 attempts 0-9 raise"),
            )
        assert info.value.shard_index == 2
        assert info.value.attempts == 2  # initial attempt + 1 retry

    def test_zero_retries_fails_fast(self):
        with pytest.raises(ShardRetriesExhaustedError):
            run_counts(
                workers=1,
                faults=FaultPolicy(max_retries=0),
                fault_injector=FaultInjector.from_text("shard 0 raise"),
            )

    def test_configuration_errors_are_never_retried(self):
        class MisconfiguredKernel:
            def __call__(self, n_trials, rng):
                raise ConfigurationError("bad kernel config")

        report = FaultReport()
        with pytest.raises(ConfigurationError):
            run_point(
                MisconfiguredKernel(),
                10,
                1,
                10,
                faults=FaultPolicy(max_retries=5, **FAST),
                fault_report=report,
            )
        assert report.retries == 0


class TestSkipProvenance:
    def test_skipped_shards_are_dropped_with_provenance(self, clean_counts):
        report = FaultReport()
        merged = run_counts(
            workers=1,
            faults=FaultPolicy(max_retries=1, on_exhausted="skip", **FAST),
            fault_report=report,
            fault_injector=FaultInjector.from_text("shard 4 attempts 0-9 raise"),
        )
        # Shard 4's 25 trials are gone; everything else matches the clean run.
        assert merged[1] == clean_counts[1] - 25
        assert [s.shard_index for s in report.skipped_shards] == [4]
        assert report.skipped_trials == 25
        assert "InjectedWorkerError" in report.skipped_shards[0].error

    def test_all_shards_skipped_raises(self):
        with pytest.raises(FaultToleranceError):
            run_point(
                BernoulliKernel(0.3),
                20,
                99,
                10,
                faults=FaultPolicy(max_retries=0, on_exhausted="skip", **FAST),
                fault_injector=FaultInjector.from_text(
                    "shard 0 attempts 0-9 raise; shard 1 attempts 0-9 raise"
                ),
            )

    def test_skipped_trials_ride_the_memory_result_and_reduce_trials(self, code_d3):
        noise = PhenomenologicalNoise(1e-2)
        point = memory_point(
            "p", code_d3, noise, _mwpm_factory, trials=60, seed=11, chunk_trials=20
        )
        result = SweepScheduler(
            workers=1,
            faults=FaultPolicy(max_retries=0, on_exhausted="skip", **FAST),
            fault_injector=FaultInjector.from_text("shard 1 attempts 0-9 raise"),
        ).run([point])["p"]
        assert result.skipped_shards == 1
        assert result.skipped_trials == 20
        assert result.trials == 40
        clean = SweepScheduler(workers=1).run([point])["p"]
        assert clean.skipped_shards == 0
        assert clean.trials == 60


class TestPoolRecovery:
    def test_sigkilled_worker_breaks_and_respawns_the_pool(self, clean_counts):
        # A pooled "kill" really SIGKILLs the worker process, which takes the
        # ProcessPoolExecutor down with it (BrokenProcessPool): the executor
        # must respawn the pool and re-dispatch every in-flight shard.
        report = FaultReport()
        faulted = run_counts(
            workers=2,
            faults=FaultPolicy(max_retries=3, **FAST),
            fault_report=report,
            fault_injector=FaultInjector.from_text("shard 0 attempts 0-1 kill"),
        )
        assert faulted == clean_counts
        assert report.pool_respawns == 2

    def test_repeated_pool_breaks_degrade_to_sequential(self, clean_counts):
        report = FaultReport()
        with pytest.warns(DegradedExecutionWarning, match="degrading to sequential"):
            faulted = run_counts(
                workers=2,
                faults=FaultPolicy(max_retries=3, max_pool_respawns=0, **FAST),
                fault_report=report,
                fault_injector=FaultInjector.from_text("shard 0 attempts 0-1 kill"),
            )
        assert faulted == clean_counts
        assert report.degraded_to_sequential
        assert report.pool_respawns == 1

    def test_hung_shard_times_out_and_retries(self, clean_counts):
        report = FaultReport()
        faulted = run_counts(
            workers=2,
            faults=FaultPolicy(max_retries=2, shard_timeout=0.5, **FAST),
            fault_report=report,
            fault_injector=FaultInjector.from_text("shard 1 attempt 0 hang 30"),
        )
        assert faulted == clean_counts
        assert report.timeouts >= 1

    def test_in_process_simulated_timeout(self, clean_counts):
        report = FaultReport()
        faulted = run_counts(
            workers=1,
            faults=FaultPolicy(max_retries=2, shard_timeout=0.1, **FAST),
            fault_report=report,
            fault_injector=FaultInjector.from_text("shard 1 attempt 0 hang 30"),
        )
        assert faulted == clean_counts
        assert report.timeouts == 1

    def test_unconstructible_pool_degrades_with_warning(
        self, monkeypatch, clean_counts, code_d3
    ):
        def broken_pool(*args, **kwargs):
            raise OSError("no POSIX semaphores in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", broken_pool
        )
        report = FaultReport()
        with pytest.warns(DegradedExecutionWarning, match="pool unavailable"):
            merged = run_counts(
                workers=2, faults=FaultPolicy(**FAST), fault_report=report
            )
        assert merged == clean_counts
        assert report.engine_degraded
        # The degradation also lands on the memory result's metadata.
        with pytest.warns(DegradedExecutionWarning):
            point = memory_point(
                "p",
                code_d3,
                PhenomenologicalNoise(1e-2),
                _mwpm_factory,
                trials=20,
                seed=5,
                chunk_trials=10,
            )
            result = SweepScheduler(workers=2, faults=FaultPolicy(**FAST)).run(
                [point]
            )["p"]
        assert result.engine_degraded


class TestAdaptiveFaultTolerance:
    STOP = dict(min_trials=100, max_trials=400)

    def run_adaptive(self, checkpoint=None, **kwargs):
        stop = until_wilson(0.08, **self.STOP)
        return run_point(
            BernoulliKernel(0.2),
            stop.max_trials,
            77,
            25,
            stop=stop,
            successes_of=bernoulli_successes,
            checkpoint=checkpoint,
            **kwargs,
        )

    def test_faulted_adaptive_run_matches_fault_free(self):
        clean = self.run_adaptive()
        report = FaultReport()
        faulted = self.run_adaptive(
            faults=FaultPolicy(max_retries=2, **FAST),
            fault_report=report,
            fault_injector=FaultInjector.from_text(
                "shard 0 attempt 0 raise; shard 2 attempt 0 kill"
            ),
        )
        assert faulted == clean
        assert report.retries == 2

    def test_truncated_checkpoint_falls_back_to_clean_recompute(self, tmp_path):
        clean = self.run_adaptive()
        # Simulate a checkpoint torn by anything other than the atomic-replace
        # protocol: the CRC envelope rejects it and the run starts fresh.
        path = tmp_path / "state.json"
        injected = AdaptiveCheckpoint(
            path, fault_injector=FaultInjector.from_text("checkpoint truncate 0")
        )
        injected.save({"version": 99, "seed": 77, "trials_done": 123})
        assert path.exists()
        assert AdaptiveCheckpoint(path).load() is None
        resumed = self.run_adaptive(checkpoint=AdaptiveCheckpoint(path))
        assert resumed == clean


# ----------------------------------------------------------------------
# Hypothesis: arbitrary (bounded) fault plans never change memory results.
# ----------------------------------------------------------------------
def shard_fault_strategy(max_shards):
    actions = st.sampled_from(["raise", "kill", "hang"])

    def build(shard, first, span, action):
        seconds = 30.0 if action == "hang" else 0.0
        return ShardFault(shard, first, first + span, action, seconds)

    return st.builds(
        build,
        st.integers(min_value=0, max_value=max_shards - 1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
        actions,
    )


def fault_plan_strategy(max_shards):
    return st.builds(
        lambda faults: FaultPlan(shard_faults=tuple(faults)),
        st.lists(shard_fault_strategy(max_shards), max_size=3),
    )


def memory_run(distance, code, plan=None):
    trials, chunk = (60, 20) if distance == 5 else (40, 20)
    point = memory_point(
        "p",
        code,
        PhenomenologicalNoise(1e-2),
        _mwpm_factory,
        trials=trials,
        seed=13,
        chunk_trials=chunk,
    )
    return SweepScheduler(
        workers=1,
        # Plans schedule at most 3 consecutive failures per shard (first
        # attempt 0/1, span <= 1), so 4 retries always clear the window;
        # a hung shard simulates its timeout instantly at 0.01 s.
        faults=FaultPolicy(max_retries=4, shard_timeout=0.01, **FAST),
        fault_injector=None if plan is None else FaultInjector(plan),
    ).run([point])["p"]


def result_bytes(result):
    return json.dumps(to_dict(result), sort_keys=True).encode("utf-8")


class TestHypothesisFaultPlans:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=fault_plan_strategy(max_shards=3))
    def test_d5_results_byte_identical_under_any_plan(self, code_d5, plan):
        baseline = memory_run(5, code_d5)
        faulted = memory_run(5, code_d5, plan)
        assert result_bytes(faulted) == result_bytes(baseline)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=fault_plan_strategy(max_shards=2))
    def test_d7_results_byte_identical_under_any_plan(self, code_d7, plan):
        baseline = memory_run(7, code_d7)
        faulted = memory_run(7, code_d7, plan)
        assert result_bytes(faulted) == result_bytes(baseline)
