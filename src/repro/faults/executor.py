"""Fault-tolerant shard dispatch: retries, timeouts, pool recovery, degrade.

:class:`ShardExecutor` is the execution engine under the sweep scheduler
(:class:`repro.simulation.scheduler.SweepScheduler`), which drives it through
:meth:`ShardExecutor.run_dynamic`.  It owns the ``ProcessPoolExecutor``
lifecycle and dispatches shard tasks — ``(kernel, shard_trials, seed,
shard_index)`` tuples under the shard layer's seeding contract, optionally
extended with a fifth ``point_index`` element when many sweep points share
one executor — with the recovery ladder of
:class:`~repro.faults.FaultPolicy`:

* a **worker exception** re-dispatches the same shard (same ``(seed,
  shard_index)`` ⇒ the retry is bit-identical) after a deterministic
  jittered backoff, up to ``max_retries`` times;
* a **shard timeout** kills the pool (a hung worker cannot be preempted
  alone), re-dispatches the timed-out shard charged one retry, and re-submits
  the innocent in-flight shards uncharged;
* a **broken pool** (a worker died and took the executor with it) respawns
  the pool and re-submits every in-flight shard, up to ``max_pool_respawns``
  incidents — after which the executor stops trusting pools and degrades to
  the sequential in-process path with a :class:`DegradedExecutionWarning`;
* a pool that cannot even be **constructed** (no POSIX semaphores, no
  forking) degrades the same way immediately, warning and flagging
  ``engine_degraded`` in the :class:`~repro.faults.FaultReport` instead of
  silently swallowing the environment problem.

With a ``shard_timeout`` armed, at most ``workers`` shards are in flight at
once, so a shard's timeout clock (stamped at submit) only ever runs while a
worker is actually executing it (a shard queued behind a full pool is not
"hung").  Without one, up to ``2 * workers`` are in flight, so a worker that
finishes a shard finds the next one already queued instead of waiting for
the parent to merge and resubmit.  Results come back in task order; shards
dropped by ``on_exhausted="skip"`` yield the :data:`SKIPPED` sentinel and
their provenance is recorded on the report.  ``FaultPolicy(max_retries=0)``
is fail-fast: the first failure exhausts the shard.

A process keeps at most one pool between runs.  Forking a pool, shipping its
first shards and joining it costs far more than a small sweep's shard
compute, and each fresh worker rebuilds its per-process decode tables, so an
executor takes the idle pool when its worker count matches and returns it
when its run ends cleanly.  A run that raised, timed out a shard or broke its
pool leaves nothing behind: its pool is shut down, and the next run builds a
fresh one.  :func:`drop_idle_pool` shuts the idle pool down (it runs at
interpreter exit), and every worker exits by itself once its parent process
is gone, so an idle pool never outlives its process.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import (
    ConfigurationError,
    ShardRetriesExhaustedError,
    ShardTimeoutError,
)
from repro.faults.injector import FaultInjector
from repro.faults.policy import FaultPolicy, FaultReport, SkippedShard
from repro.noise.rng import shard_rng


class DegradedExecutionWarning(RuntimeWarning):
    """The sharded engine fell back to sequential in-process execution."""


class _Skipped:
    """Sentinel type for shards dropped by ``on_exhausted="skip"``."""

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "<shard skipped>"


#: Placeholder returned (in task order) for shards dropped from the merge.
SKIPPED = _Skipped()

#: Floor on the executor's wait quantum when a deadline or backoff gate is
#: armed, so those checks stay cheap.  With no ``shard_timeout`` and no
#: pending backoff the dispatch loop skips deadline bookkeeping entirely and
#: blocks natively on the pool — small shards pay no 20 ms latency quantum.
_MIN_WAIT = 0.02

#: Process-pool constructions since import, across every executor instance.
#: The perf-smoke benchmark diffs this around a sweep to show that the
#: scheduler's persistent pool really is constructed once, not per point.
_POOL_CONSTRUCTIONS = 0


def pool_construction_count() -> int:
    """How many process pools have been constructed in this process so far."""
    return _POOL_CONSTRUCTIONS


#: The process's idle pool between runs, as ``(workers, pool)``, or ``None``.
_IDLE_POOL: "tuple[int, Any] | None" = None
_IDLE_LOCK = threading.Lock()

#: How often a pool worker checks that its parent process is still alive.
_PARENT_POLL_S = 0.5


def _take_idle_pool(workers: int):
    """The idle pool as ``(size, pool)`` if it is healthy and has at least
    ``workers`` workers, else ``None``.

    A broken or smaller idle pool is shut down: a process keeps one pool.  A
    larger one serves a run that needs fewer workers (a fixed-budget sweep
    with fewer shards than workers, say) without forking anew.
    """
    global _IDLE_POOL
    with _IDLE_LOCK:
        idle, _IDLE_POOL = _IDLE_POOL, None
    if idle is None:
        return None
    size, pool = idle
    if size >= workers and not getattr(pool, "_broken", False):
        return idle
    pool.shutdown(wait=True, cancel_futures=True)
    return None


def _park_pool(workers: int, pool) -> None:
    """Keep ``pool`` as the process's idle pool, shutting down any other."""
    global _IDLE_POOL
    with _IDLE_LOCK:
        displaced, _IDLE_POOL = _IDLE_POOL, (workers, pool)
    if displaced is not None:
        displaced[1].shutdown(wait=True, cancel_futures=True)


def drop_idle_pool() -> None:
    """Shut down the process's idle pool, if there is one.

    Registered with :mod:`atexit`, so the pool's workers are joined before
    interpreter teardown; the next pooled run builds a fresh pool.
    """
    global _IDLE_POOL
    with _IDLE_LOCK:
        idle, _IDLE_POOL = _IDLE_POOL, None
    if idle is not None:
        idle[1].shutdown(wait=True, cancel_futures=True)


def _forget_idle_pool() -> None:
    """In a forked child: the parent's idle pool is not this process's."""
    global _IDLE_POOL, _IDLE_LOCK
    _IDLE_POOL = None
    _IDLE_LOCK = threading.Lock()


atexit.register(drop_idle_pool)
os.register_at_fork(after_in_child=_forget_idle_pool)


def _watch_parent() -> None:
    """Pool initializer: end this worker as soon as its parent is gone.

    A worker blocks on its task queue, whose pipe it holds both ends of, so
    a parent killed without shutting the pool down would leave it waiting
    forever.  A daemon thread polls the parent pid instead: an orphan is
    re-parented, so its ``getppid()`` changes.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _task_parts(task: tuple) -> tuple:
    """Split a 4- or 5-tuple task into ``(kernel, trials, seed, shard, point)``."""
    kernel, shard_trials, seed, shard_index = task[:4]
    point_index = task[4] if len(task) > 4 else None
    return kernel, shard_trials, seed, shard_index, point_index


def _execute_shard(
    kernel: Any,
    shard_trials: int,
    seed: int,
    shard_index: int,
    attempt: int,
    injector: FaultInjector | None,
    in_process: bool,
    timeout: float | None,
    point_index: int | None = None,
) -> Any:
    """One shard attempt under the seeding contract (top-level so it pickles).

    The injector fires *before* the kernel constructs its generator, so an
    injected failure never half-consumes a shard's RNG stream — the retried
    attempt replays it bit-identically from the start.
    """
    if injector is not None:
        injector.fire_shard_fault(
            shard_index,
            attempt,
            in_process=in_process,
            timeout=timeout,
            point_index=point_index,
        )
    return kernel(shard_trials, shard_rng(seed, shard_index))


@dataclass
class _TaskState:
    """Mutable per-shard dispatch bookkeeping (parent process only)."""

    index: int
    attempt: int = 0  # total dispatches — the injector's attempt key
    retries: int = 0  # failures charged against policy.max_retries
    not_before: float = 0.0  # monotonic backoff gate for the next dispatch


@dataclass
class ShardExecutor:
    """Run shard tasks under a :class:`~repro.faults.FaultPolicy`.

    Use as a context manager; one executor may serve several
    :meth:`run_dynamic` calls and keeps its pool warm across them.  The pool
    is the process's idle pool when one with at least ``workers`` workers is
    waiting (the run's in-flight limit still follows ``workers``), and
    :meth:`close` returns it to that slot unless a run raised, timed out a
    shard or broke the pool; then it is shut down.
    ``injector=None`` picks up the ambient ``REPRO_FAULT_PLAN`` injector
    (test mode); pass an explicit injector to scope a chaos plan to one run.
    """

    workers: int
    policy: FaultPolicy = field(default_factory=FaultPolicy)
    injector: FaultInjector | None = None
    report: FaultReport = field(default_factory=FaultReport)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be positive, got {self.workers}")
        if self.injector is None:
            self.injector = FaultInjector.from_env()
        self._pool = None
        self._pool_size = self.workers
        self._pool_unavailable = False
        self._sequential_only = False
        self._reusable = True  # False once a run raised or a pool was killed

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if self._reusable:
            _park_pool(self._pool_size, pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """Return a live pool, or ``None`` when execution must be in-process."""
        if self._pool is not None:
            return self._pool
        if self.workers == 1 or self._pool_unavailable or self._sequential_only:
            return None
        idle = _take_idle_pool(self.workers)
        if idle is not None:
            self._pool_size, self._pool = idle
            return self._pool
        self._pool_size = self.workers
        try:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_watch_parent,
            )
            global _POOL_CONSTRUCTIONS
            _POOL_CONSTRUCTIONS += 1
        except (ImportError, NotImplementedError, OSError, PermissionError) as error:
            # Environments without working multiprocessing primitives raise
            # while *constructing* the pool (its queues allocate semaphores
            # eagerly).  Worker count never affects results, so the
            # sequential path is safe — but the degradation is surfaced, not
            # swallowed: a "parallel" run that silently went sequential is
            # exactly the kind of lie a throughput study trips over.
            self._pool_unavailable = True
            self.report.engine_degraded = True
            warnings.warn(
                f"process pool unavailable ({error!r}); running shards "
                "sequentially in-process (results are unaffected, wall-clock "
                "scaling is)",
                DegradedExecutionWarning,
                stacklevel=3,
            )
            return None
        return self._pool

    def _kill_pool(self) -> None:
        """Tear down a pool whose workers may be hung or already dead."""
        self._reusable = False
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # already dead / already reaped
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def run_dynamic(
        self,
        tasks: list[tuple],
        on_complete: "Callable[[int, Any], list[tuple] | None] | None" = None,
    ) -> list[Any]:
        """Execute ``tasks``, notifying ``on_complete`` as each outcome lands.

        Each task is ``(kernel, shard_trials, seed, shard_index)``, optionally
        extended with a fifth ``point_index`` element; outcomes of shards
        dropped by ``on_exhausted="skip"`` are :data:`SKIPPED`.
        ``on_complete(index, outcome)`` fires exactly once per task, the
        moment its outcome is final (a result, or :data:`SKIPPED`), and may
        return follow-up tasks to enqueue on the same still-warm pool — this
        is how the sweep scheduler feeds an adaptive point's next Wilson wave
        in while other points' shards are in flight.  Returns the outcomes of
        the final task list (follow-ups included), in task order.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        states = [_TaskState(index=index) for index in range(len(tasks))]
        results: list[Any] = [None] * len(tasks)
        queue: deque[int] = deque(range(len(tasks)))

        def finish(index: int) -> None:
            if on_complete is None:
                return
            for task in on_complete(index, results[index]) or ():
                tasks.append(task)
                states.append(_TaskState(index=len(states)))
                results.append(None)
                queue.append(len(results) - 1)

        if self._ensure_pool() is None:
            while queue:
                index = queue.popleft()
                self._run_sequential(tasks[index], states[index], results)
                finish(index)
            return results
        try:
            self._run_pooled(tasks, states, results, queue, finish)
        except BaseException:
            self._reusable = False  # shards may still be running on it
            raise
        return results

    # ------------------------------------------------------------------
    def _run_sequential(
        self, task: tuple, state: _TaskState, results: list[Any]
    ) -> None:
        kernel, shard_trials, seed, shard_index, point_index = _task_parts(task)
        while True:
            try:
                results[state.index] = _execute_shard(
                    kernel,
                    shard_trials,
                    seed,
                    shard_index,
                    state.attempt,
                    self.injector,
                    True,
                    self.policy.shard_timeout,
                    point_index,
                )
                return
            except ConfigurationError:
                raise  # deterministic misconfiguration: retrying cannot help
            except Exception as error:
                state.attempt += 1
                state.retries += 1
                if isinstance(error, ShardTimeoutError):
                    self.report.timeouts += 1
                if state.retries > self.policy.max_retries:
                    self._exhaust(task, state, error, results)
                    return
                self.report.retries += 1
                delay = self.policy.backoff_delay(seed, shard_index, state.retries)
                if delay:
                    time.sleep(delay)

    def _exhaust(
        self, task: tuple, state: _TaskState, error: Exception, results: list[Any]
    ) -> None:
        """A shard ran out of retry budget: skip with provenance, or abort."""
        _, shard_trials, _, shard_index, point_index = _task_parts(task)
        if self.policy.on_exhausted == "skip":
            self.report.skipped_shards.append(
                SkippedShard(
                    shard_index=shard_index,
                    trials=shard_trials,
                    attempts=state.attempt,
                    error=repr(error),
                    point_index=point_index,
                )
            )
            results[state.index] = SKIPPED
            return
        self._kill_pool()
        raise ShardRetriesExhaustedError(shard_index, state.attempt, error) from error

    # ------------------------------------------------------------------
    def _run_pooled(
        self,
        tasks: list[tuple],
        states: list[_TaskState],
        results: list[Any],
        queue: deque[int],
        finish: "Callable[[int], None]",
    ) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pending: dict = {}  # future -> (task index, deadline | None)
        # Deadline bookkeeping (per-future deadlines, the expiry scan, the
        # bounded wait quantum) exists only to enforce shard_timeout; without
        # one the loop blocks natively on the pool, so small shards pay no
        # _MIN_WAIT latency tax.  Backoff gates likewise only exist once a
        # retry has been charged, which a zero-retry policy never does.
        track_deadlines = self.policy.shard_timeout is not None
        track_backoff = self.policy.max_retries > 0
        # Deadlines are stamped at submit, so with a timeout armed only as
        # many shards as there are workers may be in flight.
        in_flight = self.workers if track_deadlines else 2 * self.workers

        def submit(index: int) -> None:
            kernel, shard_trials, seed, shard_index, point_index = _task_parts(
                tasks[index]
            )
            future = self._pool.submit(
                _execute_shard,
                kernel,
                shard_trials,
                seed,
                shard_index,
                states[index].attempt,
                self.injector,
                False,
                None,
                point_index,
            )
            deadline = (
                time.monotonic() + self.policy.shard_timeout
                if track_deadlines
                else None
            )
            pending[future] = (index, deadline)

        def requeue(index: int, charge_retry: bool, error: Exception | None) -> bool:
            """Schedule a re-dispatch; returns False if the shard is exhausted."""
            state = states[index]
            state.attempt += 1
            if charge_retry:
                state.retries += 1
                if state.retries > self.policy.max_retries:
                    self._exhaust(tasks[index], state, error, results)
                    if results[index] is SKIPPED:
                        finish(index)
                        return True
                    return False
                self.report.retries += 1
                _, _, seed, shard_index, _ = _task_parts(tasks[index])
                state.not_before = time.monotonic() + self.policy.backoff_delay(
                    seed, shard_index, state.retries
                )
            queue.append(index)
            return True

        def drain_pending(charge_attempt: bool = True) -> None:
            """Harvest finished futures, requeue the rest (pool is going down)."""
            for future, (index, _) in list(pending.items()):
                del pending[future]
                if future.done() and not future.cancelled():
                    try:
                        results[index] = future.result()
                        finish(index)
                        continue
                    except Exception:
                        # Broken-pool casualty (or a failure racing the
                        # incident): re-dispatch uncharged — its own failure
                        # will be charged when it recurs on the fresh pool.
                        pass
                if charge_attempt:
                    states[index].attempt += 1
                queue.append(index)

        def pool_incident() -> None:
            """A worker died hard (SIGKILL, segfault) and broke the pool."""
            self.report.pool_respawns += 1
            drain_pending()
            self._kill_pool()
            if self.report.pool_respawns > self.policy.max_pool_respawns:
                self._sequential_only = True
                self.report.degraded_to_sequential = True
                warnings.warn(
                    f"process pool broke {self.report.pool_respawns} times; "
                    "degrading to sequential in-process execution for the "
                    "remaining shards (results are unaffected)",
                    DegradedExecutionWarning,
                    stacklevel=3,
                )

        while queue or pending:
            if self._sequential_only or self._ensure_pool() is None:
                # Pool gone for good: finish everything in-process, keeping
                # each shard's accumulated attempt/retry bookkeeping.
                while queue:
                    index = queue.popleft()
                    self._run_sequential(tasks[index], states[index], results)
                    finish(index)
                return
            now = time.monotonic()
            submit_broke_pool = False
            for index in [i for i in queue if states[i].not_before <= now]:
                if len(pending) >= in_flight:
                    break
                queue.remove(index)
                try:
                    submit(index)
                except BrokenProcessPool:
                    # The pool broke between the last wait and this submit, so
                    # the incident surfaces here instead of through a future.
                    # The task never reached a worker: requeue it with its
                    # attempt key untouched (no injector attempt was consumed)
                    # and handle the incident as usual.
                    queue.append(index)
                    submit_broke_pool = True
                    break
            if submit_broke_pool:
                pool_incident()
                continue

            # How long may we block?  Until the nearest shard deadline or
            # backoff gate, whichever comes first — or indefinitely when
            # neither mechanism is armed.
            horizons = []
            if track_deadlines:
                horizons += [d for _, d in pending.values() if d is not None]
            if track_backoff:
                horizons += [
                    states[i].not_before for i in queue if states[i].not_before > now
                ]
            timeout = max(_MIN_WAIT, min(horizons) - now) if horizons else None
            if not pending:
                time.sleep(timeout if timeout is not None else _MIN_WAIT)
                continue
            done, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)

            pool_broken = False
            for future in done:
                index, _ = pending.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    states[index].attempt += 1
                    queue.append(index)
                except ConfigurationError:
                    self._kill_pool()
                    raise
                except Exception as error:
                    if not requeue(index, charge_retry=True, error=error):
                        return  # exhausted with on_exhausted="raise" raises above
                else:
                    finish(index)

            if pool_broken:
                pool_incident()
                continue

            if not track_deadlines:
                continue
            now = time.monotonic()
            expired = [
                (future, index)
                for future, (index, deadline) in pending.items()
                if deadline is not None and deadline <= now and not future.done()
            ]
            if expired:
                # A hung worker cannot be preempted alone — the whole pool is
                # killed and rebuilt.  The timed-out shards are charged one
                # retry each; innocent in-flight shards re-dispatch uncharged.
                for future, index in expired:
                    del pending[future]
                    self.report.timeouts += 1
                    _, _, _, shard_index, _ = _task_parts(tasks[index])
                    if not requeue(
                        index,
                        charge_retry=True,
                        error=ShardTimeoutError(shard_index, self.policy.shard_timeout),
                    ):
                        drain_pending()
                        self._kill_pool()
                        return
                drain_pending()
                self._kill_pool()


__all__ = [
    "SKIPPED",
    "DegradedExecutionWarning",
    "ShardExecutor",
    "drop_idle_pool",
    "pool_construction_count",
]
