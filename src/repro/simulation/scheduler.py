"""Sweep scheduling: the one dispatcher of every sharded Monte-Carlo run.

A figure sweep (fig11/fig12/fig14/fig16) is dozens of independent
Monte-Carlo points, each split into shards (:mod:`repro.simulation.shard`).
:class:`SweepScheduler` owns **one** :class:`~repro.faults.ShardExecutor`
(hence at most one process pool) for the lifetime of a sweep and keeps it
saturated with shard tasks from *all* pending points at once: fixed-budget
points enqueue their whole shard plan up front, adaptive points enqueue
wave-by-wave through a per-point Wilson driver — so a converging point's
tail overlaps the next point's first wave, and a slow last shard (a d=11
blossom tail, say) never leaves the other workers idle.  Every figure
sweep runs its uncached points here through
:func:`repro.experiments.base.schedule_sweep`; a single sharded run (a
lone :func:`memory_point`, every ``simulate_clique_coverage`` call) is
simply a one-point sweep.

The pool itself outlives the sweep.  The executor takes the process's idle
pool when its worker count matches and hands it back when the sweep ends
cleanly, so consecutive sweeps in one process reuse the same forked
workers, and their per-process decode tables, instead of forking and
joining a pool each (see :mod:`repro.faults.executor`).

Determinism holds **by construction**.  Each shard is a pure function of
``(point_seed, shard_index, chunk_trials)`` under the shard layer's seeding
contract; the scheduler only decides *when* shards execute, never which
shards exist or which streams they draw.  Every point's partials are merged
in shard-index order (waves in index order, shards within a wave by offset),
so a point's result equals the manual per-shard merge
``kernel(size, shard_rng(seed, i))`` at any worker count.  The adaptive wave
schedule — cover ``min_trials``, then double the consumed trials, clamped to
``max_trials`` — is a pure function of that point's consumed-trial count,
and the state an adaptive point's ``checkpoint`` saves after every wave lets
a killed point resume mid-point and finish bit-identical to an uninterrupted
run.

Fault tolerance is the executor's recovery ladder: retries, timeouts, pool
respawns, and degradation are per-shard concerns of the shared
:class:`~repro.faults.ShardExecutor`, whose respawn/degrade budgets span the
sweep (one executor serves it).  Tasks are dispatched tagged
``(point_index, shard_index)``, so chaos plans can pin a fault to one point
of a sweep via the ``point <p>`` qualifier (see :mod:`repro.faults.injector`)
and skipped-shard provenance stays attributable per point.  Each point is
finalised — and persisted, via its ``on_complete`` hook — the moment its
last shard lands, preserving kill-mid-sweep resume: points completed before
a crash are already durable in the :class:`~repro.store.ResultStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import ConfigurationError, FaultToleranceError
from repro.faults import (
    SKIPPED,
    FaultInjector,
    FaultPolicy,
    FaultReport,
    ShardExecutor,
)
from repro.simulation.monte_carlo import WilsonStoppingRule, wilson_interval
from repro.simulation.shard import (
    DEFAULT_SHARD_TRIALS,
    MemoryKernel,
    _checkpoint_state,
    _load_checkpoint_state,
    _memory_successes,
    _resolve_rounds,
    _resolve_seed,
    _resolve_workers,
    merge_counts,
    merge_memory_counts,
    plan_shards,
)
from repro.types import StabilizerType


@dataclass
class SweepPoint:
    """One sweep point's shard plan, merge, and completion hooks.

    ``trials`` is the fixed budget when ``stop`` is ``None``; adaptive points
    (``stop`` set) ignore it in favour of the rule's own ``min_trials`` /
    ``max_trials`` wave schedule and must provide ``successes_of``.
    ``finalize`` maps the raw :class:`PointOutcome` to the caller's result
    type; ``on_complete`` fires with that finalised result the moment the
    point's last shard lands — the persistence hook.

    ``kernel`` is a ``(n_trials, rng) -> partial_result`` callable that
    crosses process boundaries, so it must pickle: a module-level function
    or a picklable instance (e.g. a frozen dataclass) — lambdas and locally
    defined functions fail in the workers, and lint rule ``PKL001`` rejects
    them statically.  ``seed`` is an integer (or ``None`` for fresh entropy,
    drawn once and shared by all shards); a ready-made generator is
    rejected, since its state cannot be split deterministically across
    processes.  ``checkpoint`` (adaptive only) is any ``load()`` /
    ``save(state)`` / ``clear()`` slot, e.g.
    :class:`repro.store.AdaptiveCheckpoint`; it is deliberately *not* cleared
    on completion — the owner clears it once the result is durably
    persisted (``SweepCache.finish`` does), and a leftover state is
    harmless: a re-run finds the stopping rule already satisfied and
    finishes without spawning a shard.
    """

    point_id: str
    kernel: Any
    trials: int
    seed: int | None = None
    chunk_trials: int = DEFAULT_SHARD_TRIALS
    merge: Callable[[Any, Any], Any] = merge_counts
    stop: WilsonStoppingRule | None = None
    successes_of: Callable[[Any], int] | None = None
    checkpoint: Any | None = None
    finalize: Callable[["PointOutcome"], Any] | None = None
    on_complete: Callable[[Any], None] | None = None


@dataclass(frozen=True)
class PointOutcome:
    """A completed point's merged value plus per-point execution provenance.

    ``trials`` is the budget actually merged (fixed budget minus skipped
    trials, or the adaptive consumed-trial count); ``shards`` the number of
    RNG stream indices consumed.  ``successes`` / ``interval`` are set for
    adaptive points only.
    """

    point_id: str
    value: Any
    trials: int
    shards: int
    skipped_shards: int
    skipped_trials: int
    engine_degraded: bool
    successes: int | None = None
    interval: tuple[float, float] | None = None


class _PointDriver:
    """Mutable per-point progress: the Wilson driver state and wave buffers."""

    def __init__(self, index: int, point: SweepPoint) -> None:
        self.index = index  # the fault plan's / SkippedShard's point_index
        self.point = point
        self.seed = _resolve_seed(point.seed)
        self.merged: Any = None
        self.trials_done = 0
        self.next_index = 0  # next unconsumed shard RNG stream index
        self.wave_base = 0  # shard index of the current wave's offset 0
        self.wave_sizes: list[int] = []
        self.wave_outcomes: list[Any] = []
        self.outstanding = 0  # current-wave shards still in flight
        self.skipped_shards = 0
        self.skipped_trials = 0
        self.done = False
        self.result: Any = None


@dataclass
class SweepScheduler:
    """Run many sweep points on one :class:`ShardExecutor` pool.

    Attributes:
        workers: process count; defaults to ``os.cpu_count()``.  ``1`` runs
            every shard sequentially in-process.  The value never affects
            results, only wall-clock time (which is why ``workers`` sits in
            :data:`repro.store.keys.KEY_EXCLUDED` rather than in any store
            key).  A sweep of fixed-budget points sizes its pool at
            ``min(workers, total shards)``, so a one-shard run builds no
            pool at all; adaptive sweeps keep ``workers``, since their later
            waves grow.
        faults: the :class:`~repro.faults.FaultPolicy` governing retries,
            timeouts, and pool recovery (default: retry each failed shard up
            to twice with deterministic backoff).  Recovery never changes a
            merged result — retried shards replay their streams
            bit-identically.  The policy's pool-respawn and degradation
            budgets span the whole sweep.
        fault_report: optional :class:`~repro.faults.FaultReport`
            accumulating recovery counters (retries, timeouts, pool respawns,
            degradations, skipped shards) across every point.
        fault_injector: optional :class:`~repro.faults.FaultInjector` with a
            deterministic chaos plan; defaults to the ambient
            ``REPRO_FAULT_PLAN`` environment plan, if set.
    """

    workers: int | None = None
    faults: FaultPolicy | None = None
    fault_report: FaultReport | None = None
    fault_injector: FaultInjector | None = None

    def run(self, points: "list[SweepPoint]") -> dict[str, Any]:
        """Execute every point and return ``{point_id: finalised result}``.

        Points complete — finalise, fire ``on_complete`` — as their last
        shard lands, in whatever order the pool finishes them; the returned
        mapping is complete and deterministic regardless.
        """
        points = list(points)
        if not points:
            return {}
        ids = [point.point_id for point in points]
        if len(dict.fromkeys(ids)) != len(ids):
            raise ConfigurationError(f"sweep point_ids must be unique, got {ids!r}")
        for point in points:
            if point.stop is not None and point.successes_of is None:
                raise ConfigurationError(
                    f"adaptive sweep point {point.point_id!r} needs successes_of"
                )
        workers = _resolve_workers(self.workers)
        policy = self.faults if self.faults is not None else FaultPolicy()
        report = self.fault_report if self.fault_report is not None else FaultReport()
        drivers = [_PointDriver(index, point) for index, point in enumerate(points)]
        task_meta: list[tuple[_PointDriver, int]] = []  # task index -> (driver, offset)

        def start_wave(driver: _PointDriver, sizes: list[int]) -> list[tuple]:
            driver.wave_base = driver.next_index
            driver.wave_sizes = list(sizes)
            driver.wave_outcomes = [None] * len(sizes)
            driver.outstanding = len(sizes)
            batch = []
            for offset, shard_trials in enumerate(sizes):
                task_meta.append((driver, offset))
                batch.append(
                    (
                        driver.point.kernel,
                        shard_trials,
                        driver.seed,
                        driver.wave_base + offset,
                        driver.index,
                    )
                )
            return batch

        def complete(driver: _PointDriver) -> None:
            point = driver.point
            if point.stop is None:
                trials = point.trials - driver.skipped_trials
                successes: int | None = None
                interval: tuple[float, float] | None = None
            else:
                trials = driver.trials_done
                successes = point.successes_of(driver.merged)
                interval = wilson_interval(successes, driver.trials_done, point.stop.z)
            outcome = PointOutcome(
                point_id=point.point_id,
                value=driver.merged,
                trials=trials,
                shards=driver.next_index,
                skipped_shards=driver.skipped_shards,
                skipped_trials=driver.skipped_trials,
                engine_degraded=report.engine_degraded,
                successes=successes,
                interval=interval,
            )
            driver.result = (
                point.finalize(outcome) if point.finalize is not None else outcome
            )
            driver.done = True
            if point.on_complete is not None:
                point.on_complete(driver.result)

        def advance_adaptive(driver: _PointDriver) -> list[tuple]:
            point, stop = driver.point, driver.point.stop
            if driver.merged is not None and stop.satisfied(
                point.successes_of(driver.merged), driver.trials_done
            ):
                complete(driver)
                return []
            # Same schedule fresh or resumed: cover min_trials first, then
            # double the consumed total, clamped to the budget cap.
            if driver.trials_done < stop.min_trials:
                wave = stop.min_trials - driver.trials_done
            else:
                wave = stop.next_wave(driver.trials_done)
            if wave <= 0:
                complete(driver)
                return []
            return start_wave(driver, plan_shards(wave, point.chunk_trials))

        def wave_done(driver: _PointDriver) -> list[tuple]:
            point = driver.point
            sizes, outcomes = driver.wave_sizes, driver.wave_outcomes
            done_trials = 0
            # Merge strictly by shard offset: the associativity order of the
            # manual per-shard merge, hence byte-identical results at any
            # worker count even for non-commutative merges.
            for size, outcome in zip(sizes, outcomes):
                if outcome is SKIPPED:
                    driver.skipped_shards += 1
                    driver.skipped_trials += size
                    continue
                driver.merged = (
                    outcome
                    if driver.merged is None
                    else point.merge(driver.merged, outcome)
                )
                done_trials += size
            driver.next_index = driver.wave_base + len(sizes)
            if point.stop is None:
                if driver.merged is None:
                    raise FaultToleranceError(
                        f"all {len(sizes)} shard(s) were skipped after exhausting "
                        "their retry budgets; nothing to merge"
                    )
                complete(driver)
                return []
            if done_trials == 0:
                raise FaultToleranceError(
                    f"all {len(sizes)} shard(s) of an adaptive wave were "
                    "skipped after exhausting their retry budgets; the run "
                    "cannot make progress"
                )
            driver.trials_done += done_trials
            if point.checkpoint is not None:
                point.checkpoint.save(
                    _checkpoint_state(
                        driver.seed,
                        point.chunk_trials,
                        driver.trials_done,
                        driver.next_index,
                        driver.merged,
                    )
                )
            return advance_adaptive(driver)

        def open_point(driver: _PointDriver) -> list[tuple]:
            point = driver.point
            if point.stop is None:
                return start_wave(
                    driver, plan_shards(point.trials, point.chunk_trials)
                )
            if point.checkpoint is not None:
                resumed = _load_checkpoint_state(
                    point.checkpoint, driver.seed, point.chunk_trials
                )
                if resumed is not None:
                    driver.merged, driver.trials_done, driver.next_index = resumed
            return advance_adaptive(driver)

        def on_task_complete(task_index: int, outcome: Any) -> "list[tuple] | None":
            driver, offset = task_meta[task_index]
            driver.wave_outcomes[offset] = outcome
            driver.outstanding -= 1
            if driver.outstanding:
                return None
            return wave_done(driver)

        initial: list[tuple] = []
        for driver in drivers:
            # An adaptive point resuming from an already-satisfied checkpoint
            # completes here without contributing a single shard.
            initial.extend(open_point(driver))
        if initial:
            if all(point.stop is None for point in points):
                # Every shard is already known: workers beyond the shard
                # count would only be started (fork starts them all up
                # front) to sit idle.
                workers = min(workers, len(initial))
            with ShardExecutor(
                workers=workers,
                policy=policy,
                injector=self.fault_injector,
                report=report,
            ) as executor:
                executor.run_dynamic(initial, on_task_complete)
        stuck = [driver.point.point_id for driver in drivers if not driver.done]
        if stuck:
            raise FaultToleranceError(
                f"scheduled sweep finished with incomplete points: {stuck!r}"
            )
        return {driver.point.point_id: driver.result for driver in drivers}


# ----------------------------------------------------------------------
# Point adapters for the two experiment families
# ----------------------------------------------------------------------
def memory_point(
    point_id: str,
    code: Any,
    noise: Any,
    decoder_factory: Any,
    *,
    trials: int,
    seed: int | None,
    rounds: int | None = None,
    stype: StabilizerType = StabilizerType.X,
    chunk_trials: int = DEFAULT_SHARD_TRIALS,
    stop: WilsonStoppingRule | None = None,
    checkpoint: Any | None = None,
    decoder_name: str | None = None,
    on_complete: Callable[[Any], None] | None = None,
) -> SweepPoint:
    """A memory-experiment :class:`SweepPoint` finalising to a
    :class:`~repro.simulation.memory.MemoryExperimentResult`.

    Recovery provenance lands on the result: ``engine_degraded`` when the
    pool could not be constructed, and ``skipped_shards`` /
    ``skipped_trials`` (with ``trials`` reduced accordingly) when
    ``on_exhausted="skip"`` dropped shards.  Adaptive points (``stop`` set)
    track the logical-failure rate and record the trials actually consumed.
    """
    rounds = _resolve_rounds(code, rounds)
    kernel = MemoryKernel(code, noise, decoder_factory, rounds, stype)

    def finalize(outcome: PointOutcome):
        from repro.simulation.memory import MemoryExperimentResult

        (
            failures,
            onchip_rounds,
            total_rounds,
            kernel_name,
            tier_names,
            tier_trials,
            tier_rounds,
        ) = outcome.value
        return MemoryExperimentResult(
            physical_error_rate=noise.data_error_rate,
            code_distance=code.distance,
            rounds=rounds,
            trials=outcome.trials,
            logical_failures=failures,
            decoder_name=decoder_name or kernel_name,
            onchip_rounds=onchip_rounds,
            total_rounds=total_rounds,
            tier_names=tier_names,
            tier_trials=tier_trials,
            tier_rounds=tier_rounds,
            engine_degraded=outcome.engine_degraded,
            skipped_shards=outcome.skipped_shards,
            skipped_trials=outcome.skipped_trials,
        )

    return SweepPoint(
        point_id=point_id,
        kernel=kernel,
        trials=trials if stop is None else stop.max_trials,
        seed=seed,
        chunk_trials=chunk_trials,
        merge=merge_memory_counts,
        stop=stop,
        successes_of=_memory_successes if stop is not None else None,
        checkpoint=checkpoint,
        finalize=finalize,
        on_complete=on_complete,
    )


def coverage_point(
    point_id: str,
    code: Any,
    noise: Any,
    *,
    cycles: int,
    seed: int | None,
    measurement_rounds: int = 2,
    stype: StabilizerType = StabilizerType.X,
    batch_size: int = 50_000,
    chunk_cycles: int | None = None,
    stop: WilsonStoppingRule | None = None,
    checkpoint: Any | None = None,
    on_complete: Callable[[Any], None] | None = None,
) -> SweepPoint:
    """A clique-coverage :class:`SweepPoint` finalising to a
    :class:`~repro.simulation.coverage.CoverageResult`.

    Adaptive points (``stop`` set) track the on-chip proportion; the
    result's ``cycles`` records the cycles actually consumed.
    """
    from repro.simulation.coverage import (
        DEFAULT_SHARD_CYCLES,
        CoverageKernel,
        CoverageResult,
        _coverage_successes,
    )

    chunk = chunk_cycles if chunk_cycles is not None else DEFAULT_SHARD_CYCLES
    kernel = CoverageKernel(code, noise, stype, measurement_rounds, batch_size)

    def finalize(outcome: PointOutcome):
        onchip, all_zero, counted = outcome.value
        return CoverageResult(
            physical_error_rate=noise.data_error_rate,
            code_distance=code.distance,
            measurement_rounds=measurement_rounds,
            cycles=counted,
            onchip_cycles=onchip,
            all_zero_cycles=all_zero,
        )

    return SweepPoint(
        point_id=point_id,
        kernel=kernel,
        trials=cycles if stop is None else stop.max_trials,
        seed=seed,
        chunk_trials=chunk,
        merge=merge_counts,
        stop=stop,
        successes_of=_coverage_successes if stop is not None else None,
        checkpoint=checkpoint,
        finalize=finalize,
        on_complete=on_complete,
    )


__all__ = [
    "PointOutcome",
    "SweepPoint",
    "SweepScheduler",
    "coverage_point",
    "memory_point",
]
