"""Shared test kernels and oracles for sharded runs.

Lives in its own importable module (not a ``test_*`` file) so the frozen
dataclass pickles by reference into pooled worker processes from every test
module that uses it.

The oracles spell out the seeding contract by hand: a sharded point's merged
value is the kernel called once per shard with ``shard_rng(seed, i)`` and
merged in shard-index order, and an adaptive point consumes its shards in
Wilson waves (cover ``min_trials``, then double, clamped to ``max_trials``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.noise.rng import shard_rng
from repro.simulation.scheduler import SweepPoint, SweepScheduler
from repro.simulation.shard import _checkpoint_state, merge_counts, plan_shards


@dataclass(frozen=True)
class BernoulliKernel:
    """Minimal picklable kernel: count successes of a biased coin.

    Partial results are ``(successes, trials)`` tuples, merged by the
    default elementwise sum.
    """

    rate: float

    def __call__(self, n_trials, rng):
        return (int((rng.random(n_trials) < self.rate).sum()), n_trials)


@dataclass(frozen=True)
class SleepyKernel(BernoulliKernel):
    """:class:`BernoulliKernel` that first sleeps ``seconds`` per shard, so a
    test can count shards in flight before any of them finishes."""

    seconds: float = 0.2

    def __call__(self, n_trials, rng):
        time.sleep(self.seconds)
        return super().__call__(n_trials, rng)


def bernoulli_successes(counts):
    """``successes_of`` extractor for :class:`BernoulliKernel` partials."""
    return counts[0]


def run_point(
    kernel,
    trials,
    seed,
    chunk,
    workers=1,
    merge=merge_counts,
    stop=None,
    successes_of=None,
    checkpoint=None,
    **scheduler_kwargs,
):
    """Run one point through :class:`SweepScheduler`; return its outcome."""
    point = SweepPoint(
        "p",
        kernel,
        trials,
        seed=seed,
        chunk_trials=chunk,
        merge=merge,
        stop=stop,
        successes_of=successes_of,
        checkpoint=checkpoint,
    )
    return SweepScheduler(workers=workers, **scheduler_kwargs).run([point])["p"]


def merge_shards(kernel, sizes, seed, merge=merge_counts, first_index=0, merged=None):
    """Call ``kernel`` per shard under ``shard_rng`` and merge in index order."""
    for offset, size in enumerate(sizes):
        part = kernel(size, shard_rng(seed, first_index + offset))
        merged = part if merged is None else merge(merged, part)
    return merged


def shard_oracle(kernel, trials, seed, chunk, merge=merge_counts):
    """The manual per-shard merge a fixed-budget sharded point must equal."""
    return merge_shards(kernel, plan_shards(trials, chunk), seed, merge)


def adaptive_oracle(kernel, stop, successes_of, seed, chunk, merge=merge_counts):
    """Manual Wilson-wave run of an adaptive point.

    Returns ``(merged, trials, shards, states)``, where ``states`` are the
    checkpoint states an adaptive point saves after each wave.
    """
    merged, trials, shards, states = None, 0, 0, []
    while merged is None or not stop.satisfied(successes_of(merged), trials):
        if trials < stop.min_trials:
            wave = stop.min_trials - trials
        else:
            wave = stop.next_wave(trials)
        if wave <= 0:
            break
        sizes = plan_shards(wave, chunk)
        merged = merge_shards(kernel, sizes, seed, merge, shards, merged)
        trials += wave
        shards += len(sizes)
        states.append(_checkpoint_state(seed, chunk, trials, shards, merged))
    return merged, trials, shards, states
