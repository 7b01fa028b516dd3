"""Property tests for Wilson-converged adaptive trial allocation.

The contract under test (``until_wilson`` driving an adaptive
:class:`~repro.simulation.SweepPoint` through the sweep scheduler):

* a run halts with the Wilson interval no wider than the target — unless the
  ``max_trials`` budget ran out first, in which case exactly the budget was
  consumed;
* a run never uses fewer than ``min_trials`` or more than ``max_trials``;
* reruns and different worker counts are bit-identical (the shard sequence
  consumed is a pure function of the observed counts);
* degenerate 0%/100% proportions terminate at ``min_trials`` (their
  intervals collapse fastest).
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.monte_carlo import (
    WilsonStoppingRule,
    until_wilson,
    wilson_width,
)

from shard_kernels import (
    BernoulliKernel,
    adaptive_oracle,
    bernoulli_successes,
    run_point,
)


def _run(rate, rule, seed, chunk=100, workers=1):
    return run_point(
        BernoulliKernel(rate),
        rule.max_trials,
        seed,
        chunk,
        workers=workers,
        stop=rule,
        successes_of=bernoulli_successes,
    )


def _width(run):
    return run.interval[1] - run.interval[0]


class TestUntilWilson:
    def test_returns_configured_rule(self):
        rule = until_wilson(0.05, min_trials=100, max_trials=5000)
        assert isinstance(rule, WilsonStoppingRule)
        assert rule.target_width == 0.05
        assert rule.min_trials == 100
        assert rule.max_trials == 5000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            until_wilson(0.0)
        with pytest.raises(ConfigurationError):
            until_wilson(1.5)
        with pytest.raises(ConfigurationError):
            until_wilson(0.05, min_trials=0)
        with pytest.raises(ConfigurationError):
            until_wilson(0.05, min_trials=100, max_trials=50)

    def test_never_satisfied_below_min_trials(self):
        rule = until_wilson(0.9, min_trials=100, max_trials=1000)
        # A 0/50 proportion has a tiny interval, but the floor still holds.
        assert not rule.satisfied(0, 50)

    def test_always_satisfied_at_budget_cap(self):
        rule = until_wilson(0.001, min_trials=10, max_trials=100)
        # Width ~0.2 at 50/100 is far off target, but the budget is spent.
        assert rule.satisfied(50, 100)

    def test_satisfied_iff_width_within_target_between_bounds(self):
        rule = until_wilson(0.05, min_trials=100, max_trials=100_000)
        assert rule.satisfied(0, 1000)  # width ~0.005
        assert not rule.satisfied(500, 1000)  # width ~0.06

    def test_wave_schedule_doubles_and_clamps(self):
        rule = until_wilson(0.05, min_trials=100, max_trials=1000)
        assert rule.next_wave(100) == 100
        assert rule.next_wave(400) == 400
        assert rule.next_wave(800) == 200  # clamped to the remaining budget
        assert rule.next_wave(1000) == 0


class TestAdaptiveRunner:
    @pytest.mark.parametrize(
        "rate,target,seed",
        [(0.5, 0.12, 1), (0.1, 0.08, 2), (0.3, 0.1, 3), (0.05, 0.05, 4)],
    )
    def test_halts_within_target_or_exactly_at_budget(self, rate, target, seed):
        rule = until_wilson(target, min_trials=100, max_trials=20_000)
        run = _run(rate, rule, seed)
        assert rule.min_trials <= run.trials <= rule.max_trials
        assert _width(run) == wilson_width(run.successes, run.trials)
        assert _width(run) <= target or run.trials == rule.max_trials

    def test_budget_cap_is_never_exceeded(self):
        # Width 0.001 at p=0.5 needs ~4M trials; the cap must bind instead.
        rule = until_wilson(0.001, min_trials=100, max_trials=700)
        run = _run(0.5, rule, seed=7)
        assert run.trials == 700
        assert _width(run) > rule.target_width

    def test_deterministic_across_reruns(self):
        rule = until_wilson(0.1, min_trials=100, max_trials=10_000)
        first = _run(0.25, rule, seed=11)
        second = _run(0.25, rule, seed=11)
        assert first.trials == second.trials
        assert first.successes == second.successes
        assert first.interval == second.interval
        assert first.shards == second.shards

    def test_deterministic_across_worker_counts(self):
        rule = until_wilson(0.1, min_trials=200, max_trials=10_000)
        single = _run(0.25, rule, seed=13, workers=1)
        pooled = _run(0.25, rule, seed=13, workers=4)
        assert single.trials == pooled.trials
        assert single.successes == pooled.successes
        assert single.interval == pooled.interval

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_degenerate_proportions_terminate_at_min_trials(self, rate):
        rule = until_wilson(0.05, min_trials=400, max_trials=50_000)
        run = _run(rate, rule, seed=17)
        assert run.trials == rule.min_trials
        assert _width(run) <= rule.target_width
        assert run.successes == (0 if rate == 0.0 else run.trials)

    def test_never_stops_below_min_trials_even_when_converged(self):
        # Generous target: one chunk would already satisfy the width, but the
        # first wave must still cover the full min_trials floor.
        rule = until_wilson(0.5, min_trials=600, max_trials=10_000)
        run = _run(0.5, rule, seed=19, chunk=100)
        assert run.trials == 600
        assert run.shards == 6

    def test_chunking_does_not_change_trials_consumed_only_streams(self):
        # The wave schedule depends on counts, not on the chunk size; with
        # the same chunk the run is deterministic, with a different chunk the
        # per-shard streams (and thus possibly the counts) legitimately vary.
        rule = until_wilson(0.1, min_trials=300, max_trials=10_000)
        same_chunk = [_run(0.2, rule, seed=23, chunk=150) for _ in range(2)]
        assert same_chunk[0].trials == same_chunk[1].trials
        assert same_chunk[0].successes == same_chunk[1].successes

    def test_matches_manual_wave_oracle(self):
        rule = until_wilson(0.2, min_trials=100, max_trials=1000)
        run = _run(0.4, rule, seed=29)
        merged, trials, shards, _ = adaptive_oracle(
            BernoulliKernel(0.4), rule, bernoulli_successes, 29, 100
        )
        assert run.value == merged
        assert run.trials == trials == merged[1]
        assert run.shards == shards
        assert run.successes == merged[0]
