"""Shard plans, merges, and kernels: the building blocks of sharded runs.

Once a vectorised kernel (the batch memory engine of
:mod:`repro.simulation.batch`, the coverage counter of
:mod:`repro.simulation.coverage`, ...) saturates a core, the remaining orders
of magnitude come from parallel scaling.  A sharded run splits a trial budget
into fixed-size shards (:func:`plan_shards`), runs each shard's kernel call
in a worker process, and merges the per-shard partial results with an
associative ``merge``.  The dispatch itself — one persistent
``ProcessPoolExecutor`` fed with the shards of every point of a sweep — is
:class:`repro.simulation.scheduler.SweepScheduler`; this module holds what
the scheduler is built from.

A *kernel* is any picklable callable ``(n_trials, rng) -> partial_result``
(configuration — code, noise model, decoder choice — is carried on the kernel
object itself, e.g. a frozen dataclass such as :class:`MemoryKernel`), and
``merge`` is an associative, commutative combiner of two partials.  The
default merge (:func:`merge_counts`) sums numeric count tuples, which covers
every counting experiment in the repo.

Seeding contract
----------------
Shard ``i`` draws from :func:`repro.noise.rng.shard_rng`, whose stream
depends only on ``(seed, shard_index)`` — it is derived via
``SeedSequence(seed, spawn_key=(i,))``, i.e. exactly what
``SeedSequence(seed).spawn(n)[i]`` would produce for any ``n``.  The shard
plan itself depends only on ``(trials, chunk_trials)``.  Together these make
a sharded run **deterministic for a fixed** ``(seed, chunk_trials)``
**independent of** ``workers`` — the same merged counts fall out whether the
shards run in one process, in eight, or in a different assignment order.

A sharded run is *not* bit-identical to one single-stream kernel call over
the whole budget (each shard owns an independent child stream rather than a
slice of the root stream), but it is exactly equal to calling the kernel once
per shard with ``rng=shard_rng(seed, i)`` and merging in shard-index order —
which is the oracle ``tests/simulation/test_shard_engine.py`` checks the
scheduler against.

Adaptive checkpoints
--------------------
Adaptive points save their merged counts plus the shard cursor after every
Wilson wave through :func:`_checkpoint_state`; :func:`_load_checkpoint_state`
validates a saved state against the run's ``(seed, chunk_trials)`` before
resuming (a mismatched state's shard streams would not line up, so it is
ignored).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder
from repro.exceptions import ConfigurationError
from repro.noise.models import NoiseModel
from repro.noise.rng import resolve_entropy
from repro.types import StabilizerType

#: Trials per shard.  Small enough that a paper-scale budget yields plenty of
#: shards to spread over a many-core pool, large enough that each shard's
#: batch-engine vectorisation and per-process decoder construction amortise.
DEFAULT_SHARD_TRIALS = 500


def plan_shards(trials: int, chunk_trials: int) -> list[int]:
    """Split ``trials`` into the per-shard trial counts.

    The plan depends only on ``(trials, chunk_trials)`` — never on the worker
    count — which is half of the sharded engine's determinism guarantee (the
    other half is :func:`repro.noise.rng.shard_rng`).
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if chunk_trials <= 0:
        raise ConfigurationError(f"chunk_trials must be positive, got {chunk_trials}")
    full, remainder = divmod(trials, chunk_trials)
    return [chunk_trials] * full + ([remainder] if remainder else [])


def merge_counts(left: tuple, right: tuple) -> tuple:
    """Default associative merge: elementwise sum of numeric count tuples."""
    return tuple(a + b for a, b in zip(left, right))


#: Sentinel accepted by the ``chunk_trials`` / ``chunk_cycles`` knobs of the
#: sharded engine: resolve the shard size from the budget, the worker count,
#: and the code distance (see :func:`resolve_auto_chunk`).
AUTO_CHUNK = "auto"

#: Smallest shard :func:`resolve_auto_chunk` will pick: below this the
#: per-shard fixed costs (process dispatch, decoder construction, batch
#: engine setup) stop amortising.
_AUTO_CHUNK_FLOOR = 50


def resolve_auto_chunk(
    trials: int,
    workers: int | None,
    distance: int | None = None,
    default: int = DEFAULT_SHARD_TRIALS,
    floor: int = _AUTO_CHUNK_FLOOR,
) -> int:
    """Pick a shard size from the budget, worker count, and code distance.

    Two pressures, both about keeping a shared pool busy: shards must be
    numerous enough that a point yields at least ``2 * workers`` of them (so
    the sweep scheduler always has work to interleave behind another point's
    tail), and — since per-trial cost grows steeply with distance — large
    distances get proportionally smaller shards so one slow shard cannot
    stall the merge.  The result is clamped to ``[1, default]`` and respects
    ``floor`` where the budget allows; it depends only on
    ``(trials, workers, distance)``, so the resolved value is recorded in the
    store key (the spelling ``"auto"`` itself never is — it is
    machine-dependent via ``workers``).
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    workers = _resolve_workers(workers)
    cap = default
    if distance is not None and distance > 0:
        cap = max(floor, min(default, (4 * default) // distance))
    # ceil(trials / (2 * workers)) without floats: >= 2*workers shards.
    target = -(-trials // (2 * workers))
    return max(1, min(cap, target))


def _resolve_seed(seed: int | None) -> int:
    if isinstance(seed, np.random.Generator):
        raise ConfigurationError(
            "sharded runs need an integer seed (or None), not a Generator: "
            "generator state cannot be split deterministically across shards"
        )
    return resolve_entropy(seed)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 0:
        raise ConfigurationError(f"workers must be positive, got {workers}")
    return workers


#: Format tag of the adaptive checkpoint state; bump on layout changes so a
#: stale file from an older build is ignored rather than misread.
#: v2: memory-kernel partials grew per-tier cascade counts (nested tuples).
CHECKPOINT_STATE_VERSION = 2


def _deep_tuple(value: Any) -> Any:
    """Recursively turn JSON lists back into the tuples the kernels emit."""
    if isinstance(value, list):
        return tuple(_deep_tuple(item) for item in value)
    return value


def _checkpoint_state(
    seed: int, chunk_trials: int, trials_done: int, next_index: int, merged: Any
) -> dict:
    """The adaptive checkpoint payload saved after every Wilson wave.

    The layout is versioned by :data:`CHECKPOINT_STATE_VERSION`; a state
    from an older layout loads as ``None`` and the point recomputes.
    """
    return {
        "version": CHECKPOINT_STATE_VERSION,
        "seed": seed,
        "chunk_trials": chunk_trials,
        "trials_done": trials_done,
        "next_index": next_index,
        "merged": list(merged) if isinstance(merged, tuple) else merged,
    }


def _load_checkpoint_state(
    checkpoint: Any, seed: int, chunk_trials: int
) -> tuple[Any, int, int] | None:
    """Validate a saved adaptive state against this run's stream parameters."""
    state = checkpoint.load()
    if not isinstance(state, dict):
        return None
    if (
        state.get("version") != CHECKPOINT_STATE_VERSION
        or state.get("seed") != seed
        or state.get("chunk_trials") != chunk_trials
    ):
        return None
    merged = state.get("merged")
    trials_done = state.get("trials_done")
    next_index = state.get("next_index")
    if not isinstance(trials_done, int) or not isinstance(next_index, int):
        return None
    if merged is None or trials_done <= 0 or next_index <= 0:
        return None
    # Merged partials are (possibly nested) tuples in-memory; JSON stored
    # them as lists.
    return _deep_tuple(merged), trials_done, next_index


# ----------------------------------------------------------------------
# Memory-experiment kernel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MemoryKernel:
    """Picklable memory-experiment shard kernel (rides the batch engine).

    Partial results are ``(logical_failures, onchip_rounds, total_rounds,
    decoder_name, tier_names, tier_trials, tier_rounds)`` tuples — the tier
    entries are per-cascade-tier count tuples, empty for flat decoders —
    merged with :func:`merge_memory_counts`.
    """

    code: RotatedSurfaceCode
    noise: NoiseModel
    decoder_factory: Callable[[RotatedSurfaceCode, StabilizerType], Decoder]
    rounds: int
    stype: StabilizerType

    def __call__(
        self, shard_trials: int, rng: np.random.Generator
    ) -> tuple[int, int, int, str, tuple, tuple, tuple]:
        from repro.simulation.batch import run_memory_experiment_batch

        result = run_memory_experiment_batch(
            self.code,
            self.noise,
            self.decoder_factory,
            trials=shard_trials,
            rounds=self.rounds,
            stype=self.stype,
            rng=rng,
        )
        return (
            result.logical_failures,
            result.onchip_rounds,
            result.total_rounds,
            result.decoder_name,
            result.tier_names,
            result.tier_trials,
            result.tier_rounds,
        )


def merge_memory_counts(
    left: tuple[int, int, int, str, tuple, tuple, tuple],
    right: tuple[int, int, int, str, tuple, tuple, tuple],
) -> tuple[int, int, int, str, tuple, tuple, tuple]:
    """Associative merge for :class:`MemoryKernel` partials."""
    return (
        left[0] + right[0],
        left[1] + right[1],
        left[2] + right[2],
        left[3],
        tuple(left[4]),
        tuple(a + b for a, b in zip(left[5], right[5])),
        tuple(a + b for a, b in zip(left[6], right[6])),
    )


def _memory_successes(counts: tuple[int, int, int, str]) -> int:
    """Tracked proportion for adaptive memory runs: the logical-failure count."""
    return counts[0]


def _resolve_rounds(code: RotatedSurfaceCode, rounds: int | None) -> int:
    if rounds is None:
        rounds = code.distance
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds}")
    return rounds


__all__ = [
    "AUTO_CHUNK",
    "CHECKPOINT_STATE_VERSION",
    "DEFAULT_SHARD_TRIALS",
    "MemoryKernel",
    "merge_counts",
    "merge_memory_counts",
    "plan_shards",
    "resolve_auto_chunk",
]
