"""Shared Clique-coverage sweep for the coverage figures.

Fig. 11 and Fig. 12 are the same Monte-Carlo sweep read through different
columns.  :func:`run_coverage_sweep` resolves every grid point's coverage
config and hands them to the sweep figures' one cache-then-schedule stage
(:func:`~repro.experiments.base.schedule_sweep`), which Fig. 14 and Fig. 16
share: cached points come from the result store, and every uncached
point's shards are interleaved through one
:class:`~repro.simulation.SweepScheduler` run.  Each point is persisted the
moment its last shard lands (and checkpointed per Wilson wave when
adaptive), so a sweep killed mid-run resumes with only its missing points.
Results are byte-identical at any worker count; ``workers=None`` picks one
for the whole grid (:func:`~repro.simulation.coverage.coverage_workers`).
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.codes.rotated_surface import get_code
from repro.experiments.base import ExperimentResult, PointRequest, schedule_sweep
from repro.noise.models import NoiseModel, PhenomenologicalNoise
from repro.noise.rng import point_seed
from repro.simulation.coverage import (
    CoverageResult,
    coverage_point_for,
    coverage_workers,
    resolve_coverage_config,
)
from repro.simulation.scheduler import SweepScheduler

#: Builds one table row from a sweep point's (rate, distance, result).
CoverageRowBuilder = Callable[[float, int, CoverageResult], dict[str, object]]


def coverage_request(noise: NoiseModel, config: dict, seed: int) -> PointRequest:
    """The :func:`~repro.experiments.base.schedule_sweep` request measuring
    ``config`` (:func:`~repro.simulation.coverage.resolve_coverage_config`,
    resolved from ``noise``) under ``seed``."""
    build = functools.partial(
        coverage_point_for,
        code=get_code(config["distance"]),
        noise=noise,
        config=config,
        seed=seed,
    )
    return config, seed, build


def run_coverage_sweep(
    cache,
    experiment_id: str,
    title: str,
    cycles: int,
    seed: int,
    distances: tuple[int, ...],
    error_rates: tuple[float, ...],
    measurement_rounds: int,
    workers: int | None,
    chunk_cycles: "int | str | None",
    target_ci_width: float | None,
    row_of: CoverageRowBuilder,
    notes: str,
) -> ExperimentResult:
    """Run the (error rate x distance) coverage grid and tabulate with ``row_of``.

    Every point derives its seed via ``point_seed(seed, rate_index,
    distance_index)``.
    """
    workers = coverage_workers(
        workers, [(cycles, distance) for _ in error_rates for distance in distances]
    )
    requests: dict[str, PointRequest] = {}
    cells = []
    for rate_index, error_rate in enumerate(error_rates):
        noise = PhenomenologicalNoise(error_rate)
        for distance_index, distance in enumerate(distances):
            config = resolve_coverage_config(
                cycles,
                noise,
                distance,
                measurement_rounds=measurement_rounds,
                workers=workers,
                chunk_cycles=chunk_cycles,
                target_ci_width=target_ci_width,
            )
            point_id = f"{rate_index}:{distance_index}"
            requests[point_id] = coverage_request(
                noise, config, point_seed(seed, rate_index, distance_index)
            )
            cells.append((error_rate, distance, point_id))
    results = schedule_sweep(cache, requests, SweepScheduler(workers=workers))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=[
            row_of(error_rate, distance, results[point_id])
            for error_rate, distance, point_id in cells
        ],
        notes=notes,
    )


__all__ = ["CoverageRowBuilder", "coverage_request", "run_coverage_sweep"]
