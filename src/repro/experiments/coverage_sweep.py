"""Shared (error rate x distance) Clique-coverage sweep body.

Fig. 11 and Fig. 12 are the same Monte-Carlo sweep read through different
columns; this module owns the loop both runners delegate to — per-point
spawn-key seeding, the sharded/adaptive engine knobs, and the result-store
integration (each point stored under its resolved coverage config as it
completes, reused on re-runs, checkpointed per Wilson wave when adaptive).

With the sharded engine engaged, every uncached point's shards are
interleaved through one persistent worker pool
(:class:`~repro.simulation.SweepScheduler`); each point is persisted the
moment its last shard lands, so a sweep killed mid-run resumes with only its
missing points.  Results are byte-identical at any worker count.  Without the
sharded engine each point runs the in-process single-stream path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.codes.rotated_surface import get_code
from repro.experiments.base import ExperimentResult
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import point_seed
from repro.simulation.coverage import (
    CoverageResult,
    _is_sharded,
    resolve_coverage_config,
    simulate_clique_coverage,
)
from repro.simulation.monte_carlo import until_wilson
from repro.simulation.scheduler import SweepScheduler, coverage_point

#: Builds one table row from a sweep point's (rate, distance, result).
CoverageRowBuilder = Callable[[float, int, CoverageResult], dict[str, object]]


@dataclass(frozen=True)
class _Scheduled:
    """Placeholder for a sweep cell whose point is pending in the scheduler."""

    point_id: str


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
    """Run the coverage grid through a sweep cache and tabulate with ``row_of``.

    ``cache`` is the runner's :class:`~repro.store.SweepCache` (a transparent
    pass-through when no store is configured).
    """
    sharded = _is_sharded(workers, chunk_cycles, target_ci_width)

    def _persist_hook(config, base_seed):
        # Fired by the scheduler the moment the point's last shard lands, so
        # a kill mid-sweep leaves every finished point durably stored.
        return lambda result: cache.finish(config, base_seed, result)

    pending: list = []
    grid: list[tuple] = []
    for rate_index, error_rate in enumerate(error_rates):
        noise = PhenomenologicalNoise(error_rate)
        for distance_index, distance in enumerate(distances):
            code = get_code(distance)
            config = resolve_coverage_config(
                cycles,
                noise,
                distance,
                measurement_rounds=measurement_rounds,
                workers=workers,
                chunk_cycles=chunk_cycles,
                target_ci_width=target_ci_width,
            )
            base_seed = point_seed(seed, rate_index, distance_index)
            if sharded:
                result = cache.lookup(config, base_seed)
                if result is None:
                    point_id = f"{rate_index}:{distance_index}"
                    stop = (
                        until_wilson(
                            target_ci_width,
                            min_trials=config["min_cycles"],
                            max_trials=cycles,
                        )
                        if target_ci_width is not None
                        else None
                    )
                    pending.append(
                        coverage_point(
                            point_id,
                            code,
                            noise,
                            cycles=cycles,
                            seed=base_seed,
                            measurement_rounds=measurement_rounds,
                            chunk_cycles=config["chunk_cycles"],
                            stop=stop,
                            checkpoint=(
                                cache.checkpoint(config, base_seed)
                                if target_ci_width is not None
                                else None
                            ),
                            on_complete=_persist_hook(config, base_seed),
                        )
                    )
                    result = _Scheduled(point_id)
            else:
                result = cache.point(
                    config,
                    base_seed,
                    lambda: simulate_clique_coverage(
                        code,
                        noise,
                        cycles,
                        measurement_rounds=measurement_rounds,
                        rng=base_seed,
                    ),
                )
            grid.append((error_rate, distance, result))
    scheduled = SweepScheduler(workers=workers).run(pending)
    rows = []
    for error_rate, distance, result in grid:
        if isinstance(result, _Scheduled):
            result = scheduled[result.point_id]
        rows.append(row_of(error_rate, distance, result))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=rows,
        notes=notes,
    )


__all__ = ["CoverageRowBuilder", "run_coverage_sweep"]
