"""Fig. 14 — logical error rate of the Clique cascade vs the MWPM baseline.

Two scales are supported via ``scale=``:

* ``"laptop"`` (default): distances 3/5/7 with a flat trial budget — the
  statistical shape (near-identical curves) in seconds.
* ``"paper"``: the paper's full distance grid 3–11 with per-distance trial
  budgets — the regime where Fig. 14's interesting divergence at d=9/11
  lives.

Every (point, decoder) run is a :func:`~repro.simulation.memory_point` of
one :class:`~repro.simulation.SweepScheduler` run: stored points come from
the result store, and the shards of all the others share one worker pool
(:func:`~repro.experiments.base.schedule_sweep`, the stage the coverage
figures use too).

``adaptive=True`` (the CLI's ``--adaptive``) switches every point to
Wilson-converged trial allocation: each (point, decoder) run stops as soon
as its logical-error-rate confidence interval is at most
``target_ci_width`` wide, with the scale's fixed budget as the cap.
"""

from __future__ import annotations

import functools

from repro.clique.cascade import MWPM_TIER, DecoderCascade
from repro.codes.rotated_surface import RotatedSurfaceCode, get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.exceptions import ConfigurationError
from repro.experiments.base import (
    ExperimentResult,
    PointRequest,
    resolve_fault_policy,
    schedule_sweep,
    sweep_cache,
)
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import point_seed
from repro.simulation.monte_carlo import WilsonStoppingRule, until_wilson
from repro.simulation.scheduler import SweepScheduler, memory_point
from repro.simulation.shard import (
    AUTO_CHUNK,
    DEFAULT_SHARD_TRIALS,
    resolve_auto_chunk,
)
from repro.types import StabilizerType

DEFAULT_DISTANCES = (3, 5, 7)
DEFAULT_ERROR_RATES = (5e-3, 1e-2, 2e-2, 3e-2)
DEFAULT_TRIALS = 1_000

#: The paper's full distance grid (Fig. 14 runs d = 3 .. 11).
PAPER_DISTANCES = (3, 5, 7, 9, 11)
#: Per-distance trial budgets for ``scale="paper"``: more statistics where
#: trials are cheap, fewer where the off-chip fallback dominates, keeping the
#: whole sweep tractable while the curves stay well resolved.
PAPER_TRIAL_BUDGETS = {3: 20_000, 5: 10_000, 7: 5_000, 9: 2_000, 11: 1_000}


def _mwpm_factory(code: RotatedSurfaceCode, stype: StabilizerType) -> MWPMDecoder:
    """Baseline-decoder factory (module-level, so sharded workers can pickle it)."""
    return MWPMDecoder(code, stype)


def _cascade_factory(
    code: RotatedSurfaceCode, stype: StabilizerType
) -> DecoderCascade:
    """Clique+MWPM cascade factory (module-level, so workers can pickle it)."""
    return DecoderCascade(code, stype)


#: Display labels of the two decoders of every point; each is the point's
#: ``"decoder"`` store-key entry.
BASELINE_LABEL = "MWPM"
CASCADE_LABEL = "Clique+MWPM"


def _resolve_scale(
    scale: str,
    trials: int | None,
    distances: tuple[int, ...] | None,
) -> tuple[dict[int, int], tuple[int, ...]]:
    """Fill in the per-distance trial budgets and the distance grid."""
    if scale == "laptop":
        distances = DEFAULT_DISTANCES if distances is None else distances
        budget = {
            d: trials if trials is not None else DEFAULT_TRIALS for d in distances
        }
        return budget, distances
    if scale == "paper":
        distances = PAPER_DISTANCES if distances is None else distances
        budget = {
            d: trials
            if trials is not None
            else PAPER_TRIAL_BUDGETS.get(d, DEFAULT_TRIALS)
            for d in distances
        }
        return budget, distances
    raise ConfigurationError(f"scale must be 'laptop' or 'paper', got {scale!r}")


def _memory_point_config(
    distance: int,
    error_rate: float,
    rounds: int | None,
    trials: int,
    decoder: str,
    stop: WilsonStoppingRule | None,
    chunk_trials: int | None = None,
) -> dict[str, object]:
    """The fully resolved, stream-determining config of one fig14 point.

    The result-store keying contract for one
    :func:`~repro.simulation.scheduler.memory_point` run: defaults are
    resolved (rounds to the code distance, the shard size to
    :data:`~repro.simulation.shard.DEFAULT_SHARD_TRIALS`) so implicit and
    explicit spellings key identically, and the point is built from this
    config (see :func:`run`), so the key and the streams cannot drift apart.
    Every excluded runner keyword is listed, with its reason, in the central
    :data:`repro.store.keys.KEY_EXCLUDED`; lint rule ``KEY001`` enforces
    that this function and that list jointly cover the full
    ``memory_point`` signature.

    The cascade point keeps its off-chip tier name under the historical
    ``"fallback"`` entry, now a constant ``"mwpm"`` (``None`` for the
    baseline), so stores written when the off-chip tier was selectable stay
    warm; ``tests/experiments/test_store_resume.py`` pins the default keys.
    """
    return {
        "kind": "memory",
        "distance": distance,
        "error_rate": error_rate,
        "rounds": rounds if rounds is not None else distance,
        "trials": trials,
        # Every fig14 point is sharded; the constant entry keeps stores
        # written when in-process engines were a choice byte-compatible.
        "engine": "sharded",
        "chunk_trials": (
            chunk_trials if chunk_trials is not None else DEFAULT_SHARD_TRIALS
        ),
        "decoder": decoder,
        "fallback": MWPM_TIER if decoder == CASCADE_LABEL else None,
        "stype": StabilizerType.X.value,
        "adaptive": None
        if stop is None
        else {
            "target_width": stop.target_width,
            "min_trials": stop.min_trials,
            "max_trials": stop.max_trials,
            "z": stop.z,
        },
    }


def run(
    trials: int | None = None,
    seed: int = 2026,
    distances: tuple[int, ...] | None = None,
    error_rates: tuple[float, ...] = DEFAULT_ERROR_RATES,
    rounds: int | None = None,
    scale: str = "laptop",
    workers: int | None = None,
    chunk_trials: "int | str | None" = None,
    adaptive: bool = False,
    target_ci_width: float | None = None,
    min_trials: int = 200,
    store: object | None = None,
    force: bool = False,
    max_retries: int | None = None,
    shard_timeout: float | None = None,
) -> ExperimentResult:
    """Reproduce the Fig. 14 comparison (MWPM baseline vs Clique+MWPM).

    Args:
        trials: flat per-point trial budget; ``None`` (default) picks the
            scale's budget (flat 1000 on laptop, per-distance on paper).
        seed: root seed; every (distance, rate, decoder) point derives its
            own stream from it.
        distances: code distances; ``None`` picks the scale's grid.
        error_rates: physical error rates swept per distance.
        rounds: noisy rounds per trial (defaults to the code distance).
        scale: ``"laptop"`` (seconds, d<=7) or ``"paper"`` (d=3-11 with
            per-distance budgets — the Fig. 14 divergence regime).
        workers: worker processes (default ``os.cpu_count()``, capped at
            the sweep's shard count; ``1`` runs every shard in-process);
            results never depend on it.
        chunk_trials: trials per shard (default
            :data:`~repro.simulation.shard.DEFAULT_SHARD_TRIALS`); with the
            seed it fully determines the result, so it participates in the
            store key with its resolved value.  ``"auto"`` resolves
            per point from the point's trial budget, the worker count, and
            the code distance (see
            :func:`~repro.simulation.shard.resolve_auto_chunk`), so short
            high-distance points still split into enough shards to keep a
            pool busy; the resolved integer is what enters the key.
        adaptive: stop each (point, decoder) run as soon as the Wilson
            interval on its logical error rate is at most ``target_ci_width``
            wide, instead of burning the full fixed budget.  The scale's
            per-point budget becomes the cap (adaptive never uses *more*
            trials than the fixed sweep), and the per-decoder
            ``baseline_trials``/``clique_trials`` columns report what each
            run actually consumed.
        target_ci_width: Wilson-interval width target (default 0.02);
            passing it implies ``adaptive`` — a width target on a
            non-adaptive run would otherwise be silently ignored.
        min_trials: floor below which adaptive runs never stop (clamped to
            the point budget).
        store: result-store directory (or ready store) — every (point,
            decoder) run is persisted as it completes and reused on re-runs,
            so a killed sweep recomputes only its missing points; adaptive
            runs additionally checkpoint per Wilson wave and resume
            mid-point.
        force: recompute and overwrite stored points.
        max_retries: fault tolerance — failed shard attempts re-dispatched
            per shard before giving up (default 2; retried shards replay
            their RNG streams bit-identically, so the value never affects
            results).
        shard_timeout: wall-clock budget per shard attempt in seconds; a
            hung worker pool is killed and the shard re-dispatched.

    Every pending (point, decoder) run's shards are interleaved through one
    persistent worker pool (:class:`~repro.simulation.SweepScheduler`), and
    each run is persisted the moment its last shard lands.
    """
    budget, distances = _resolve_scale(scale, trials, distances)
    if target_ci_width is not None:
        adaptive = True
    elif adaptive:
        target_ci_width = 0.02
    # Deliberately absent from _memory_point_config: fault recovery replays
    # shard streams bit-identically, so the policy (like workers) never
    # affects the stored counts.
    faults = resolve_fault_policy(max_retries, shard_timeout)
    cache = sweep_cache(store, "fig14", force)

    requests: dict[str, PointRequest] = {}
    grid: list[tuple] = []
    for distance_index, distance in enumerate(distances):
        code = get_code(distance)
        for rate_index, error_rate in enumerate(error_rates):
            noise = PhenomenologicalNoise(error_rate)
            base_seed = point_seed(seed, distance_index, rate_index)
            point_trials = budget[distance]
            stop = (
                until_wilson(
                    target_ci_width,
                    min_trials=min(min_trials, point_trials),
                    max_trials=point_trials,
                )
                if adaptive
                else None
            )

            point_chunk = (
                resolve_auto_chunk(point_trials, workers, distance)
                if chunk_trials == AUTO_CHUNK
                else chunk_trials
            )

            def _decoder_run(decoder_label, factory):
                config = _memory_point_config(
                    distance,
                    error_rate,
                    rounds,
                    point_trials,
                    decoder_label,
                    stop,
                    point_chunk,
                )
                point_id = f"{distance_index}:{rate_index}:{decoder_label}"
                requests[point_id] = (
                    config,
                    base_seed,
                    functools.partial(
                        memory_point,
                        code=code,
                        noise=noise,
                        decoder_factory=factory,
                        trials=config["trials"],
                        seed=base_seed,
                        rounds=config["rounds"],
                        stype=StabilizerType(config["stype"]),
                        chunk_trials=config["chunk_trials"],
                        stop=stop,
                        decoder_name=decoder_label,
                    ),
                )
                return point_id

            baseline = _decoder_run(BASELINE_LABEL, _mwpm_factory)
            hierarchical = _decoder_run(CASCADE_LABEL, _cascade_factory)
            grid.append((distance, error_rate, point_trials, baseline, hierarchical))
    results = schedule_sweep(
        cache, requests, SweepScheduler(workers=workers, faults=faults)
    )

    rows = []
    for distance, error_rate, point_trials, baseline_id, hierarchical_id in grid:
        baseline = results[baseline_id]
        hierarchical = results[hierarchical_id]
        rows.append(
            {
                "code_distance": distance,
                "physical_error_rate": error_rate,
                "trials": point_trials,
                "baseline_trials": baseline.trials,
                "clique_trials": hierarchical.trials,
                "baseline_logical_error_rate": baseline.logical_error_rate,
                "clique_logical_error_rate": hierarchical.logical_error_rate,
                "baseline_ci_high": baseline.confidence_interval[1],
                "clique_ci_high": hierarchical.confidence_interval[1],
                "onchip_round_fraction": hierarchical.onchip_round_fraction,
            }
        )
    notes = (
        "Measured: Clique+MWPM fails 2.2x as often as the MWPM baseline at d=5,\n"
        "p=1e-2 (235 vs 107 of 20k trials) and 3.3x at d=7, p=1e-2 (49 vs 15 of\n"
        "10k): the persistence filter reads two data errors that share an\n"
        "ancilla as one measurement error, which costs fault distance.\n"
        f"(scale={scale}"
        + (f", adaptive: Wilson width <= {target_ci_width})" if adaptive else ")")
    )
    return ExperimentResult(
        experiment_id="fig14",
        title=f"Logical error rate: MWPM baseline vs {CASCADE_LABEL}",
        rows=rows,
        notes=notes,
    )


__all__ = [
    "run",
    "BASELINE_LABEL",
    "CASCADE_LABEL",
    "DEFAULT_DISTANCES",
    "DEFAULT_ERROR_RATES",
    "PAPER_DISTANCES",
    "PAPER_TRIAL_BUDGETS",
]
