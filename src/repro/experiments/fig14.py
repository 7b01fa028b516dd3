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

``compare_fallbacks`` (registry id ``fig14_fallbacks``) adds the off-chip
cost/accuracy trade-off rows: the same workload decoded through both
cascade specs (Clique+MWPM and Clique+union-find by default), with the
off-chip trial fraction and bandwidth alongside the logical error rates and
throughput.  ``tiers=`` (the CLI's ``--tiers``) restricts the comparison to
one cascade spec plus the Clique+MWPM reference.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import RotatedSurfaceCode, get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.registry import resolve_tier_spec
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


#: Display labels for cascade tier names (``clique,union_find`` renders as
#: ``Clique+UF``).
_TIER_LABELS = {"clique": "Clique", "mwpm": "MWPM", "union_find": "UF"}


def _cascade_label(tier_names: tuple[str, ...]) -> str:
    return "+".join(_TIER_LABELS.get(name, name) for name in tier_names)


@dataclass(frozen=True)
class _CascadeFactory:
    """Picklable cascade factory carrying the resolved tier spec."""

    tiers: tuple[str, ...] = ("clique", "mwpm")

    def __call__(
        self, code: RotatedSurfaceCode, stype: StabilizerType
    ) -> DecoderCascade:
        return DecoderCascade(code, stype, tiers=self.tiers)


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
    tiers: tuple[str, ...] | None,
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

    The cascade participates in the key through its off-chip tier name,
    under the historical ``"fallback"`` entry (so stores populated before
    the ``tiers`` spec became the only spelling stay warm — the numbers are
    bit-identical, and ``tests/experiments/test_store_resume.py`` pins one
    such key).
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
        "fallback": tiers[1] if tiers is not None else None,
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
    tiers: str | tuple[str, ...] = ("clique", "mwpm"),
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
    """Reproduce the Fig. 14 comparison (baseline vs the Clique cascade).

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
        tiers: the cascade spec — ``"clique"`` and one off-chip decoder,
            as a comma-separated string or name pair; the default is the
            paper's Clique+MWPM design, ``"clique,union_find"`` swaps the
            off-chip decoder.  Bad specs fail eagerly, before any sweep work.
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
    cascade_tiers = resolve_tier_spec(tiers)
    hierarchy_name = _cascade_label(cascade_tiers)
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

            def _decoder_run(decoder_label, factory, decoder_tiers=None):
                config = _memory_point_config(
                    distance,
                    error_rate,
                    rounds,
                    point_trials,
                    decoder_label,
                    decoder_tiers,
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

            baseline = _decoder_run("MWPM", _mwpm_factory)
            hierarchical = _decoder_run(
                hierarchy_name,
                _CascadeFactory(cascade_tiers),
                cascade_tiers,
            )
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
        f"(scale={scale}, tiers={','.join(cascade_tiers)}"
        + (f", adaptive: Wilson width <= {target_ci_width})" if adaptive else ")")
    )
    return ExperimentResult(
        experiment_id="fig14",
        title=f"Logical error rate: MWPM baseline vs {hierarchy_name}",
        rows=rows,
        notes=notes,
    )


#: Cascade specs compared by default in ``fig14_fallbacks``: the paper's
#: Clique+MWPM hierarchy and its union-find off-chip alternative.
DEFAULT_FALLBACK_SPECS = (("clique", "mwpm"), ("clique", "union_find"))


def compare_fallbacks(
    trials: int = 600,
    seed: int = 2026,
    distances: tuple[int, ...] = (5, 7),
    error_rate: float = 1e-2,
    rounds: int | None = None,
    tiers: str | tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Accuracy/throughput of the hierarchy's off-chip decoders side by side.

    One row per (distance, cascade spec): the union-find clustering decoder
    scales near-linearly where blossom is cubic, but costs accuracy: flat
    MWPM / union-find / Clique+MWPM logical failures were measured at
    107 / 474 / 235 (d=5, p=1e-2) and 5 / 48 / 14 (d=7, p=5e-3) over
    20,000 seeded phenomenological-noise trials.
    Each row is one :func:`~repro.simulation.memory_point` run in-process
    on a one-worker :class:`~repro.simulation.SweepScheduler`, and the
    wall-clock throughput is measured around that whole run, so it reflects
    the off-chip decoder's real share of the decoding pipeline rather than
    worker-pool start-up.  The triage columns — the fraction of trials that
    left the chip (``offchip_trial_fraction``) and the off-chip bandwidth
    in detection rounds per trial (``offchip_rounds_per_trial``) — depend
    only on the Clique tier, so they match across specs at each distance.

    ``tiers`` (the CLI's ``--tiers``) compares one cascade spec against the
    Clique+MWPM reference (``"clique,mwpm"`` alone runs just that
    reference).
    """
    if tiers is not None:
        spec = resolve_tier_spec(tiers)
        specs = [("clique", "mwpm"), spec] if spec != ("clique", "mwpm") else [spec]
    else:
        specs = [resolve_tier_spec(spec) for spec in DEFAULT_FALLBACK_SPECS]
    rows = []
    for distance_index, distance in enumerate(distances):
        code = get_code(distance)
        noise = PhenomenologicalNoise(error_rate)
        base_seed = point_seed(seed, distance_index)
        for spec in specs:
            label = _cascade_label(spec)
            point = memory_point(
                label,
                code,
                noise,
                _CascadeFactory(spec),
                trials=trials,
                seed=base_seed,
                rounds=rounds,
                decoder_name=label,
            )
            start = time.perf_counter()
            result = SweepScheduler(workers=1).run([point])[label]
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "code_distance": distance,
                    "physical_error_rate": error_rate,
                    "tiers": ",".join(spec),
                    "trials": trials,
                    "logical_error_rate": result.logical_error_rate,
                    "ci_high": result.confidence_interval[1],
                    "onchip_round_fraction": result.onchip_round_fraction,
                    "offchip_trial_fraction": round(
                        result.offchip_trial_fraction, 4
                    ),
                    "offchip_rounds_per_trial": round(
                        result.offchip_rounds_per_trial, 4
                    ),
                    "trials_per_sec": round(trials / elapsed, 1),
                }
            )
    notes = (
        "Same seed per distance, so every cascade decodes identical error\n"
        "histories; any logical-error-rate gap is purely the off-chip\n"
        "decoder's accuracy.  offchip_trial_fraction is the share of trials\n"
        "that left the chip; offchip_rounds_per_trial the off-chip bandwidth\n"
        "in detection rounds."
    )
    return ExperimentResult(
        experiment_id="fig14_fallbacks",
        title="Off-chip decoder trade-off: MWPM vs union-find",
        rows=rows,
        notes=notes,
    )


__all__ = [
    "run",
    "compare_fallbacks",
    "DEFAULT_DISTANCES",
    "DEFAULT_ERROR_RATES",
    "DEFAULT_FALLBACK_SPECS",
    "PAPER_DISTANCES",
    "PAPER_TRIAL_BUDGETS",
]
