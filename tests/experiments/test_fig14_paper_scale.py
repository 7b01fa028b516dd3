"""Opt-in paper-scale Fig. 14 sweep (d = 3 .. 11, batched fallback, scheduled).

The full sweep is far too heavy for the tier-1 fast path, so it is double
gated: marked ``slow`` and skipped unless ``REPRO_PAPER_SCALE=1``.  Run it
with

    REPRO_PAPER_SCALE=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_fig14_paper_scale.py -q

A trimmed-budget variant keeps the d=9/11 code paths exercised in minutes;
drop the ``trials`` override below for the full per-distance budgets.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import fig14

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("REPRO_PAPER_SCALE") != "1",
        reason="paper-scale sweep is opt-in; set REPRO_PAPER_SCALE=1",
    ),
]


def test_paper_scale_sweep_covers_d3_to_d11():
    result = fig14.run(
        scale="paper",
        trials=200,  # trimmed budget; the grid is the paper's
        error_rates=(1e-2,),
        seed=2026,
    )
    assert [row["code_distance"] for row in result.rows] == list(fig14.PAPER_DISTANCES)
    for row in result.rows:
        assert 0.0 <= row["baseline_logical_error_rate"] <= 1.0
        assert 0.0 <= row["clique_logical_error_rate"] <= 1.0
        assert 0.0 <= row["onchip_round_fraction"] <= 1.0
    assert all(row["trials"] == 200 for row in result.rows)
    assert "scale=paper" in result.notes


def test_paper_budgets_cover_every_paper_distance():
    assert set(fig14.PAPER_TRIAL_BUDGETS) == set(fig14.PAPER_DISTANCES)
    # More statistics at small distances, where trials are cheap.
    budgets = [fig14.PAPER_TRIAL_BUDGETS[d] for d in fig14.PAPER_DISTANCES]
    assert budgets == sorted(budgets, reverse=True)

