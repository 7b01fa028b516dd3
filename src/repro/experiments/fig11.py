"""Fig. 11 — fraction of decodes the Clique decoder handles on-chip."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, sweep_cache
from repro.experiments.coverage_sweep import run_coverage_sweep

DEFAULT_DISTANCES = (3, 5, 7, 9, 11, 13, 15, 17, 21)
DEFAULT_ERROR_RATES = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)


def run(
    cycles: int = 20_000,
    seed: int = 2023,
    distances: tuple[int, ...] = DEFAULT_DISTANCES,
    error_rates: tuple[float, ...] = DEFAULT_ERROR_RATES,
    measurement_rounds: int = 2,
    workers: int | None = None,
    chunk_cycles: "int | str | None" = None,
    target_ci_width: float | None = None,
    store: object | None = None,
    force: bool = False,
) -> ExperimentResult:
    """Reproduce the Fig. 11 coverage curves (coverage vs distance per error rate).

    Every sweep point derives its seed via ``point_seed(seed, rate_index,
    distance_index)`` — ``SeedSequence`` spawn keys, collision-free for any
    grid size.  Each point runs in shards of ``chunk_cycles`` cycles
    (default 5000) on ``workers`` processes (default: one in-process
    worker for a small grid, ``os.cpu_count()`` for a large one, see
    :func:`repro.simulation.coverage.coverage_workers`); the counts are
    deterministic per seed independent of the worker count.
    ``target_ci_width`` makes each point adaptive, sampling only
    until the Wilson interval on its coverage reaches the target width (with
    ``cycles`` as the budget cap) — the ``cycles`` column then reports what
    each point actually consumed.

    ``store`` (the CLI's ``--store DIR``) persists every sweep point as it
    completes and reuses already-present points on re-runs, so an
    interrupted sweep resumes where it stopped; adaptive points additionally
    checkpoint per Wilson wave.  ``force`` recomputes and overwrites.

    ``chunk_cycles="auto"`` sizes shards per point from the budget, worker
    count, and distance.  Every pending point's shards are interleaved
    through one persistent worker pool
    (:class:`~repro.simulation.SweepScheduler`).
    """
    return run_coverage_sweep(
        sweep_cache(store, "fig11", force),
        experiment_id="fig11",
        title="Clique on-chip decode coverage",
        cycles=cycles,
        seed=seed,
        distances=distances,
        error_rates=error_rates,
        measurement_rounds=measurement_rounds,
        workers=workers,
        chunk_cycles=chunk_cycles,
        target_ci_width=target_ci_width,
        row_of=_fig11_row,
        notes=(
            "Paper observation: coverage stays near/above ~70% even at a 1% physical\n"
            "error rate and distance 21, and approaches 100% as the error rate or\n"
            "distance decreases."
        ),
    )


def _fig11_row(error_rate: float, distance: int, result) -> dict[str, object]:
    low, high = result.coverage_interval
    return {
        "physical_error_rate": error_rate,
        "code_distance": distance,
        "cycles": result.cycles,
        "coverage_pct": 100.0 * result.coverage,
        "coverage_ci_low_pct": 100.0 * low,
        "coverage_ci_high_pct": 100.0 * high,
        "offchip_fraction": result.offchip_fraction,
    }


__all__ = ["run", "DEFAULT_DISTANCES", "DEFAULT_ERROR_RATES"]
