"""Shared Clique-coverage scheduling for the coverage figures.

Fig. 11 and Fig. 12 are the same Monte-Carlo sweep read through different
columns, and Fig. 16 measures coverage at a few operating points before its
bandwidth stages.  :func:`measure_coverage` is the one coverage stage they
all go through: cached points come from the result store, and every
uncached point's shards are interleaved through one
:class:`~repro.simulation.SweepScheduler` run.  Each point is persisted the
moment its last shard lands (and checkpointed per Wilson wave when
adaptive), so a sweep killed mid-run resumes with only its missing points.
Results are byte-identical at any worker count; ``workers=None`` picks one
for the whole grid (:func:`~repro.simulation.coverage.coverage_workers`).
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.codes.rotated_surface import RotatedSurfaceCode, get_code
from repro.experiments.base import ExperimentResult
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

#: One coverage point to measure: its code and noise, the resolved config
#: (:func:`~repro.simulation.coverage.resolve_coverage_config`) and its seed.
CoverageRequest = tuple[RotatedSurfaceCode, NoiseModel, dict, int]


def measure_coverage(
    cache, requests: dict[str, CoverageRequest], workers: int
) -> dict[str, CoverageResult]:
    """Measure every requested point, reusing stored results.

    ``cache`` is the runner's :class:`~repro.store.SweepCache` (a transparent
    pass-through when no store is configured); ``requests`` maps unique point
    ids to what to measure; ``workers`` is the count the configs were
    resolved with (:func:`~repro.simulation.coverage.coverage_workers`).
    Returns ``{point_id: CoverageResult}``.
    """
    results: dict[str, CoverageResult] = {}
    pending = []
    for point_id, (code, noise, config, seed) in requests.items():
        cached = cache.lookup(config, seed)
        if cached is not None:
            results[point_id] = cached
            continue
        adaptive = config["target_ci_width"] is not None
        pending.append(
            coverage_point_for(
                point_id,
                code,
                noise,
                config,
                seed,
                checkpoint=cache.checkpoint(config, seed) if adaptive else None,
                # Fired the moment the point's last shard lands, so a kill
                # mid-sweep leaves every finished point durably stored.
                on_complete=functools.partial(cache.finish, config, seed),
            )
        )
    results.update(SweepScheduler(workers=workers).run(pending))
    return results


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
    requests: dict[str, CoverageRequest] = {}
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
            requests[point_id] = (
                get_code(distance),
                noise,
                config,
                point_seed(seed, rate_index, distance_index),
            )
            cells.append((error_rate, distance, point_id))
    results = measure_coverage(cache, requests, workers)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=[
            row_of(error_rate, distance, results[point_id])
            for error_rate, distance, point_id in cells
        ],
        notes=notes,
    )


__all__ = [
    "CoverageRequest",
    "CoverageRowBuilder",
    "measure_coverage",
    "run_coverage_sweep",
]
