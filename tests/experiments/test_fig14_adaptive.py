"""Adaptive fig14: Wilson-converged allocation beats the fixed paper budget.

Pins the PR's acceptance criterion: at d=5, p=1e-2 an adaptive run with a
0.02 target interval width reaches the target using (far) fewer trials than
the fixed ``PAPER_TRIAL_BUDGETS`` entry, deterministically per seed.
"""

from __future__ import annotations

from repro.clique.cascade import DecoderCascade
from repro.experiments import fig14
from repro.experiments.fig14 import PAPER_TRIAL_BUDGETS
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.monte_carlo import until_wilson
from repro.simulation.scheduler import SweepScheduler, memory_point


def _hierarchical(code, stype):
    return DecoderCascade(code, stype, tiers=("clique", "mwpm"))


class TestAdaptiveMemoryExperiment:
    def test_reaches_target_width_below_paper_budget_at_d5_p1e2(self, code_d5):
        budget = PAPER_TRIAL_BUDGETS[5]
        stop = until_wilson(0.02, min_trials=200, max_trials=budget)
        point = memory_point(
            "p",
            code_d5,
            PhenomenologicalNoise(1e-2),
            _hierarchical,
            trials=budget,
            stop=stop,
            seed=2026,
            chunk_trials=200,
        )
        result = SweepScheduler(workers=1).run([point])["p"]
        low, high = result.confidence_interval
        assert high - low <= 0.02
        assert result.trials < budget

    def test_adaptive_runs_are_deterministic(self, code_d3):
        stop = until_wilson(0.05, min_trials=100, max_trials=2000)
        point = memory_point(
            "p",
            code_d3,
            PhenomenologicalNoise(2e-2),
            _hierarchical,
            trials=2000,
            stop=stop,
            seed=7,
            chunk_trials=100,
        )
        runs = [SweepScheduler(workers=workers).run([point])["p"] for workers in (1, 2)]
        assert runs[0].trials == runs[1].trials
        assert runs[0].logical_failures == runs[1].logical_failures
        assert runs[0].onchip_rounds == runs[1].onchip_rounds


class TestFig14AdaptiveRunner:
    def test_rows_record_consumed_trials_within_budget(self):
        result = fig14.run(
            distances=(3,),
            error_rates=(2e-2,),
            trials=600,
            adaptive=True,
            target_ci_width=0.08,
            min_trials=100,
            workers=1,
            seed=3,
        )
        row = result.rows[0]
        assert row["trials"] == 600
        assert 100 <= row["baseline_trials"] <= 600
        assert 100 <= row["clique_trials"] <= 600
        assert "adaptive" in result.notes

    def test_target_ci_width_alone_implies_adaptive(self):
        # A width target on a non-adaptive run must not be silently ignored.
        result = fig14.run(
            distances=(3,),
            error_rates=(2e-2,),
            trials=400,
            target_ci_width=0.1,
            min_trials=100,
            workers=1,
            seed=3,
        )
        assert "adaptive" in result.notes
        assert result.rows[0]["baseline_trials"] <= 400

    def test_adaptive_alone_targets_the_default_width(self):
        # adaptive=True without a width runs Wilson-converged points at the
        # default 0.02 target, capped at the laptop scale's budget.
        result = fig14.run(
            distances=(3,),
            error_rates=(3e-2,),
            trials=300,
            adaptive=True,
            min_trials=100,
            workers=1,
            seed=5,
        )
        assert "adaptive: Wilson width <= 0.02" in result.notes
        row = result.rows[0]
        assert 100 <= row["baseline_trials"] <= 300
        assert 100 <= row["clique_trials"] <= 300
