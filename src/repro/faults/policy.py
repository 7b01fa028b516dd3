"""Per-shard fault policy and the fault report filled in by the executor.

A sharded Monte-Carlo run is a merge of pure shard functions — PR 2's seeding
contract makes every shard's partial result a function of ``(seed,
shard_index)`` alone — so a failed shard can simply be *re-run* and the
retried attempt is bit-identical to the one that died.  :class:`FaultPolicy`
bounds how hard the executor tries (retry budget, backoff, per-attempt
timeout) and what happens when the budget runs out; :class:`FaultReport`
records what actually happened so callers can surface provenance (skipped
shards, pool respawns, engine degradation) without the merged counts having
to carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError

#: Spawn-key tag separating backoff-jitter streams from shard result streams:
#: result streams use length-1 spawn keys ``(shard_index,)``, jitter streams
#: length-3 keys ``(shard_index, _JITTER_STREAM, retry)`` — SeedSequence
#: spawn keys of different lengths never collide, so drawing jitter can never
#: perturb a shard's (retried, bit-identical) result stream.
_JITTER_STREAM = 0xFA017


@dataclass(frozen=True)
class FaultPolicy:
    """How the shard executor handles worker failures.

    Attributes:
        max_retries: failed attempts re-dispatched per shard before the shard
            is declared exhausted (``0`` disables retries: fail-fast).
        backoff_base: first-retry backoff delay in seconds; retry ``k`` waits
            ``min(backoff_cap, backoff_base * 2**(k-1))`` scaled by a
            deterministic jitter factor in ``[0.5, 1.0)`` drawn from the
            shard's own ``SeedSequence`` lineage (see :meth:`backoff_delay`)
            — reruns of the same seed back off identically.
        backoff_cap: upper bound on a single backoff delay, seconds.
        shard_timeout: wall-clock budget per shard *attempt*, seconds.
            Enforced preemptively on the pooled path (the hung pool is killed
            and in-flight shards re-dispatched); the in-process path cannot
            preempt a genuinely hung shard and only honours it for injected
            hangs (which simulate the timeout).  ``None`` disables it.
        on_exhausted: ``"raise"`` (default) aborts the run with
            :class:`~repro.exceptions.ShardRetriesExhaustedError` when a
            shard's budget runs out; ``"skip"`` drops the shard from the
            merge and records it in the :class:`FaultReport` — the result is
            then *incomplete* and carries skipped-shard provenance.
        max_pool_respawns: broken-pool incidents (a worker died and took the
            ``ProcessPoolExecutor`` with it) tolerated before the executor
            stops respawning pools and degrades to the sequential in-process
            path with a warning.  Timeout kills do not count — they are
            charged to the offending shard's retry budget instead.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 5.0
    shard_timeout: float | None = None
    on_exhausted: str = "raise"
    max_pool_respawns: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError(
                "backoff_base and backoff_cap must be non-negative, got "
                f"{self.backoff_base} / {self.backoff_cap}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be positive (or None), got {self.shard_timeout}"
            )
        if self.on_exhausted not in ("raise", "skip"):
            raise ConfigurationError(
                f"on_exhausted must be 'raise' or 'skip', got {self.on_exhausted!r}"
            )
        if self.max_pool_respawns < 0:
            raise ConfigurationError(
                f"max_pool_respawns must be non-negative, got {self.max_pool_respawns}"
            )

    def backoff_delay(self, seed: int, shard_index: int, retry: int) -> float:
        """Deterministic jittered exponential backoff before retry ``retry``.

        The jitter factor is drawn from
        ``SeedSequence(seed, spawn_key=(shard_index, _JITTER_STREAM, retry))``
        — the same lineage as the shard's result stream but on a spawn key no
        result stream can ever use — so two runs of the same seed sleep the
        same schedule (reproducible wall-clock traces) while distinct shards
        and retries still de-correlate.
        """
        if retry < 1:
            raise ConfigurationError(f"retry must be >= 1, got {retry}")
        base = min(self.backoff_cap, self.backoff_base * 2.0 ** (retry - 1))
        if base == 0:
            return 0.0
        jitter = np.random.default_rng(
            np.random.SeedSequence(
                seed, spawn_key=(shard_index, _JITTER_STREAM, retry)
            )
        ).random()
        return base * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class SkippedShard:
    """Provenance of one shard dropped by ``on_exhausted="skip"``.

    ``point_index`` identifies the sweep point the shard belonged to (tasks
    from many points share one executor); it is ``None`` for a task
    dispatched without a point index.
    """

    shard_index: int
    trials: int
    attempts: int
    error: str
    point_index: int | None = None


@dataclass
class FaultReport:
    """What the executor actually did to finish (or give up on) a run.

    One report instance can span multiple executor calls (e.g. every wave of
    an adaptive run); counters only ever accumulate.

    Attributes:
        retries: shard attempts re-dispatched after a failure or timeout.
        timeouts: shard attempts that exceeded ``shard_timeout``.
        pool_respawns: broken-pool incidents recovered by respawning the pool
            and re-submitting the in-flight shards.
        engine_degraded: the process pool could not be *constructed* (e.g. a
            sandbox without POSIX semaphores) and the run fell back to the
            sequential in-process path.
        degraded_to_sequential: repeated broken-pool incidents exceeded
            ``max_pool_respawns`` mid-run and the remaining shards ran
            sequentially.
        skipped_shards: shards dropped from the merge under
            ``on_exhausted="skip"``, with their trial counts and last errors.
    """

    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    engine_degraded: bool = False
    degraded_to_sequential: bool = False
    skipped_shards: list[SkippedShard] = field(default_factory=list)

    @property
    def skipped_trials(self) -> int:
        """Total trials dropped from the merge by skipped shards."""
        return sum(shard.trials for shard in self.skipped_shards)

    @property
    def faults_handled(self) -> int:
        """Total fault events the executor absorbed."""
        return self.retries + self.pool_respawns + len(self.skipped_shards)


__all__ = ["FaultPolicy", "FaultReport", "SkippedShard"]
