"""Deterministic chaos-injection harness: ``FaultInjector`` + ``REPRO_FAULT_PLAN``.

A *fault plan* is a declarative, fully deterministic schedule of failures —
which shard dies on which attempt and how, which store line gets corrupted,
which checkpoint save gets truncated.  Because the plan is a pure function of
``(shard_index, attempt)`` / line and save counters (never of wall-clock time
or randomness), a chaos test can assert that the recovered run's output is
**byte-identical** to a fault-free run: every injected failure is absorbed by
the retry/quarantine machinery and every retried shard replays the exact same
RNG stream.

Plan grammar (clauses separated by ``;``, keywords case-insensitive)::

    [point <p>] shard <i> [attempts <a>[-<b>]] raise        # raise in the worker
    [point <p>] shard <i> [attempts <a>[-<b>]] kill         # SIGKILL the worker
    [point <p>] shard <i> [attempts <a>[-<b>]] hang <secs>  # sleep in the worker
    store line <k> corrupt                        # flip bytes of line k on write
    checkpoint truncate [<n>]                     # truncate the n-th checkpoint save

``attempts`` defaults to ``0`` (first attempt only); ``attempt`` is accepted
as a synonym.  The optional ``point <p>`` qualifier restricts a shard clause
to the ``p``-th point of a scheduled sweep (the scheduler's enumeration
order); unqualified clauses match the shard index of *every* point.
Shard/point/attempt/line/save indices are zero-based.  Example::

    REPRO_FAULT_PLAN="shard 1 attempt 0 raise; shard 2 attempts 0-1 kill; \\
                      shard 0 attempt 0 hang 5; store line 3 corrupt"

The shard executor and the result store pick the plan up from the
``REPRO_FAULT_PLAN`` environment variable automatically (test mode), or take
an explicit :class:`FaultInjector` argument.  In-process (``workers=1`` /
degraded) execution cannot SIGKILL or preempt itself, so ``kill`` is
simulated as an :class:`InjectedWorkerCrash` exception and a ``hang`` longer
than the policy's ``shard_timeout`` sleeps the timeout and raises
:class:`~repro.exceptions.ShardTimeoutError` — the recovery semantics under
test stay identical at every worker count.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, ReproError, ShardTimeoutError

#: Environment variable holding the active fault plan (test mode).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class InjectedFaultError(ReproError):
    """Base class of failures raised by the injection harness itself."""


class InjectedWorkerError(InjectedFaultError):
    """An injected in-worker exception (the plan's ``raise`` action)."""


class InjectedWorkerCrash(InjectedFaultError):
    """An injected worker crash simulated in-process (the ``kill`` action).

    A real ``SIGKILL`` would take the whole interpreter down when the shard
    runs in the parent process, so the in-process path raises this instead;
    the executor treats it like any other worker death.
    """


@dataclass(frozen=True)
class ShardFault:
    """One ``shard ...`` clause: fail a shard on a range of attempts.

    ``point_index`` is ``None`` for unqualified clauses (match the shard
    index within every sweep point) or the zero-based scheduler point a
    ``point <p>`` qualifier pins the clause to.
    """

    shard_index: int
    first_attempt: int
    last_attempt: int
    action: str  # "raise" | "kill" | "hang"
    seconds: float = 0.0
    point_index: int | None = None

    def matches(
        self, shard_index: int, attempt: int, point_index: int | None = None
    ) -> bool:
        if self.point_index is not None and self.point_index != point_index:
            return False
        return (
            shard_index == self.shard_index
            and self.first_attempt <= attempt <= self.last_attempt
        )


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable (and therefore picklable) fault schedule."""

    shard_faults: tuple[ShardFault, ...] = ()
    corrupt_store_lines: tuple[int, ...] = ()
    truncate_checkpoint_saves: tuple[int, ...] = ()

    def shard_fault(
        self, shard_index: int, attempt: int, point_index: int | None = None
    ) -> ShardFault | None:
        """The first clause scheduled for this ``(point, shard, attempt)``."""
        for fault in self.shard_faults:
            if fault.matches(shard_index, attempt, point_index):
                return fault
        return None

    def corrupts_store_line(self, line_number: int) -> bool:
        return line_number in self.corrupt_store_lines

    def truncates_checkpoint_save(self, save_number: int) -> bool:
        return save_number in self.truncate_checkpoint_saves

    @property
    def is_empty(self) -> bool:
        return not (
            self.shard_faults
            or self.corrupt_store_lines
            or self.truncate_checkpoint_saves
        )


def _parse_attempts(tokens: list[str], clause: str) -> tuple[int, int]:
    """Consume an optional ``attempt[s] a[-b]`` prefix from ``tokens``."""
    if not tokens or tokens[0] not in ("attempt", "attempts"):
        return 0, 0
    if len(tokens) < 2:
        raise ConfigurationError(f"missing attempt range in fault clause {clause!r}")
    tokens.pop(0)
    spec = tokens.pop(0)
    first, sep, last = spec.partition("-")
    try:
        lo = int(first)
        hi = int(last) if sep else lo
    except ValueError:
        raise ConfigurationError(
            f"bad attempt range {spec!r} in fault clause {clause!r}"
        ) from None
    if lo < 0 or hi < lo:
        raise ConfigurationError(
            f"attempt range must be non-negative and ordered, got {spec!r} "
            f"in fault clause {clause!r}"
        )
    return lo, hi


def _parse_int(token: str, what: str, clause: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ConfigurationError(
            f"bad {what} {token!r} in fault clause {clause!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(
            f"{what} must be non-negative, got {value} in fault clause {clause!r}"
        )
    return value


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the ``REPRO_FAULT_PLAN`` grammar into a :class:`FaultPlan`."""
    shard_faults: list[ShardFault] = []
    corrupt_lines: list[int] = []
    truncate_saves: list[int] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        tokens = clause.lower().split()
        subject = tokens.pop(0)
        point_index: int | None = None
        if subject == "point":
            if not tokens:
                raise ConfigurationError(f"missing point index in {clause!r}")
            point_index = _parse_int(tokens.pop(0), "point index", clause)
            if not tokens or tokens.pop(0) != "shard":
                raise ConfigurationError(
                    f"'point <p>' must be followed by a shard clause: {clause!r}"
                )
            subject = "shard"
        if subject == "shard":
            if not tokens:
                raise ConfigurationError(f"missing shard index in {clause!r}")
            shard_index = _parse_int(tokens.pop(0), "shard index", clause)
            first, last = _parse_attempts(tokens, clause)
            if not tokens:
                raise ConfigurationError(
                    f"missing action (raise/kill/hang) in fault clause {clause!r}"
                )
            action = tokens.pop(0)
            seconds = 0.0
            if action == "hang":
                if not tokens:
                    raise ConfigurationError(
                        f"hang needs a duration in seconds: {clause!r}"
                    )
                try:
                    seconds = float(tokens.pop(0))
                except ValueError:
                    raise ConfigurationError(
                        f"bad hang duration in fault clause {clause!r}"
                    ) from None
                if seconds <= 0:
                    raise ConfigurationError(
                        f"hang duration must be positive: {clause!r}"
                    )
            elif action not in ("raise", "kill"):
                raise ConfigurationError(
                    f"unknown shard fault action {action!r} in {clause!r} "
                    "(expected raise, kill, or hang)"
                )
            if tokens:
                raise ConfigurationError(
                    f"trailing tokens {tokens!r} in fault clause {clause!r}"
                )
            shard_faults.append(
                ShardFault(shard_index, first, last, action, seconds, point_index)
            )
        elif subject == "store":
            if len(tokens) != 3 or tokens[0] != "line" or tokens[2] != "corrupt":
                raise ConfigurationError(
                    f"expected 'store line <k> corrupt', got {clause!r}"
                )
            corrupt_lines.append(_parse_int(tokens[1], "store line", clause))
        elif subject == "checkpoint":
            if not tokens or tokens[0] != "truncate" or len(tokens) > 2:
                raise ConfigurationError(
                    f"expected 'checkpoint truncate [<n>]', got {clause!r}"
                )
            save = _parse_int(tokens[1], "checkpoint save", clause) if len(tokens) == 2 else 0
            truncate_saves.append(save)
        else:
            raise ConfigurationError(
                f"unknown fault clause subject {subject!r} in {clause!r} "
                "(expected shard, store, or checkpoint)"
            )
    return FaultPlan(
        shard_faults=tuple(shard_faults),
        corrupt_store_lines=tuple(corrupt_lines),
        truncate_checkpoint_saves=tuple(truncate_saves),
    )


@dataclass(frozen=True)
class FaultInjector:
    """Carries a :class:`FaultPlan` into the runner, the workers, and the store.

    Frozen (hence picklable): the worker-side decision is a pure function of
    ``(shard_index, attempt)``, and the store-side counters (lines written,
    checkpoint saves) live in the consumers, not here.
    """

    plan: FaultPlan

    @classmethod
    def from_text(cls, text: str) -> "FaultInjector":
        return cls(parse_fault_plan(text))

    @classmethod
    def from_env(cls) -> "FaultInjector | None":
        """The ambient test-mode injector, or ``None`` outside test mode."""
        text = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not text:
            return None
        return cls.from_text(text)

    # ------------------------------------------------------------------
    def fire_shard_fault(
        self,
        shard_index: int,
        attempt: int,
        in_process: bool,
        timeout: float | None,
        point_index: int | None = None,
    ) -> None:
        """Apply the plan's fault for this shard attempt, if one is scheduled.

        Runs at the top of the shard body — in the pooled worker process or
        in the parent for in-process execution — *before* the kernel touches
        its RNG stream, so an injected failure never half-consumes a stream.
        """
        fault = self.plan.shard_fault(shard_index, attempt, point_index)
        if fault is None:
            return
        if fault.action == "raise":
            raise InjectedWorkerError(
                f"injected worker exception: shard {shard_index} attempt {attempt}"
            )
        if fault.action == "kill":
            if in_process:
                raise InjectedWorkerCrash(
                    f"injected worker crash (simulated in-process): "
                    f"shard {shard_index} attempt {attempt}"
                )
            os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("unreachable: SIGKILL delivered to self")
        # "hang": in a pooled worker, really stall — the parent's deadline
        # fires, the pool is killed, and the shard is re-dispatched.  In
        # process we cannot preempt ourselves, so a hang longer than the
        # policy timeout sleeps the timeout and *simulates* the timeout
        # error; shorter hangs (or no timeout) are plain stalls.
        if in_process and timeout is not None and fault.seconds > timeout:
            time.sleep(timeout)
            raise ShardTimeoutError(shard_index, timeout)
        time.sleep(fault.seconds)


__all__ = [
    "FAULT_PLAN_ENV",
    "FaultInjector",
    "FaultPlan",
    "InjectedFaultError",
    "InjectedWorkerCrash",
    "InjectedWorkerError",
    "ShardFault",
    "parse_fault_plan",
]
