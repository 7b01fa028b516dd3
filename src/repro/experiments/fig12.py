"""Fig. 12 — share of on-chip decodes that carry non-all-zero signatures."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, sweep_cache
from repro.experiments.coverage_sweep import run_coverage_sweep
from repro.experiments.fig11 import DEFAULT_DISTANCES, DEFAULT_ERROR_RATES


def run(
    cycles: int = 20_000,
    seed: int = 2024,
    distances: tuple[int, ...] = DEFAULT_DISTANCES,
    error_rates: tuple[float, ...] = DEFAULT_ERROR_RATES,
    measurement_rounds: int = 2,
    workers: int | None = None,
    chunk_cycles: "int | str | None" = None,
    target_ci_width: float | None = None,
    store: object | None = None,
    force: bool = False,
) -> ExperimentResult:
    """Reproduce Fig. 12: how much real decoding work Clique does beyond zero suppression.

    Seeding, sharding, and result-store semantics follow
    :func:`repro.experiments.fig11.run`: spawn-key per-point seeds, shards of
    ``chunk_cycles`` spread over ``workers`` (``"auto"`` sizes shards per
    point), Wilson-adaptive sampling under ``target_ci_width``, and
    per-point persistence/resume under ``store`` / ``force``.
    """
    return run_coverage_sweep(
        sweep_cache(store, "fig12", force),
        experiment_id="fig12",
        title="On-chip decodes that are not all-zeros",
        cycles=cycles,
        seed=seed,
        distances=distances,
        error_rates=error_rates,
        measurement_rounds=measurement_rounds,
        workers=workers,
        chunk_cycles=chunk_cycles,
        target_ci_width=target_ci_width,
        row_of=_fig12_row,
        notes=(
            "Paper observation: near the surface-code threshold (highest error\n"
            "rates) and at high code distances nearly all on-chip decodes carry a\n"
            "non-zero signature, so zero-suppression alone (ship everything that is\n"
            "not all-0s) would save almost no bandwidth — a real trivial-case\n"
            "decoder like Clique is required."
        ),
    )


def _fig12_row(error_rate: float, distance: int, result) -> dict[str, object]:
    return {
        "physical_error_rate": error_rate,
        "code_distance": distance,
        "cycles": result.cycles,
        "onchip_not_all_zeros_pct": 100.0 * result.onchip_nonzero_share,
        "nonzero_handled_onchip_pct": 100.0 * result.nonzero_coverage,
        "all_zeros_pct": 100.0 * (result.all_zero_cycles / result.cycles),
    }


__all__ = ["run"]
