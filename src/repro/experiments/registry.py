"""Registry mapping experiment ids to their runner callables."""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ExperimentNotFoundError
from repro.experiments import (
    fig04,
    fig09,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    headline,
    table1,
)
from repro.experiments.base import ExperimentResult

_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "fig04": fig04.run,
    "fig09": fig09.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig16": fig16.run,
    "table1": table1.run,
    "headline": headline.run,
}


def available_experiments() -> tuple[str, ...]:
    """Ids of every registered experiment, sorted."""
    return tuple(sorted(_REGISTRY))


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment runner by id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError as exc:
        raise ExperimentNotFoundError(experiment_id, available_experiments()) from exc


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run an experiment by id, forwarding keyword parameters to its runner."""
    return get_experiment(experiment_id)(**kwargs)


__all__ = ["available_experiments", "get_experiment", "run_experiment"]
