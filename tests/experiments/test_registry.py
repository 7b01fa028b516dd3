"""Tests for the experiment registry."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentNotFoundError
from repro.experiments.registry import available_experiments, get_experiment, run_experiment


EXPECTED_IDS = {
    "fig04",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "table1",
    "headline",
}


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert set(available_experiments()) == EXPECTED_IDS

    def test_ids_are_sorted(self):
        assert list(available_experiments()) == sorted(available_experiments())

    def test_get_experiment_returns_callable(self):
        assert callable(get_experiment("fig15"))

    def test_unknown_id_raises_with_suggestions(self):
        with pytest.raises(ExperimentNotFoundError) as excinfo:
            get_experiment("fig99")
        assert "fig11" in str(excinfo.value)

    def test_run_experiment_forwards_kwargs(self):
        result = run_experiment("fig15", distances=(3, 5))
        assert len(result.rows) == 2
        assert result.experiment_id == "fig15"
