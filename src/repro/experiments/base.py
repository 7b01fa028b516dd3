"""Shared result container, text formatting, and store plumbing for runners."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.simulation.scheduler import SweepPoint, SweepScheduler
    from repro.store import ResultStore, SweepCache

#: One sweep point to measure: its resolved store-key config, its seed, and
#: a builder ``(point_id, checkpoint=..., on_complete=...) -> SweepPoint``
#: (e.g. a ``functools.partial`` of ``memory_point`` or
#: ``coverage_point_for``) that runs exactly that config.
PointRequest = tuple[dict, int, Callable[..., "SweepPoint"]]


@dataclass
class ExperimentResult:
    """The data series behind one reproduced table or figure.

    Attributes:
        experiment_id: registry id, e.g. ``"fig11"``.
        title: human-readable description.
        rows: list of flat dictionaries; all rows share the same keys.
        notes: free-form commentary (parameters, caveats, paper-reported
            values for comparison).
    """

    experiment_id: str
    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    # ------------------------------------------------------------------
    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.rows[0].keys()) if self.rows else ()

    def column(self, name: str) -> list[object]:
        """Extract one column across all rows."""
        return [row[name] for row in self.rows]

    @staticmethod
    def _format_value(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1e4 or abs(value) < 1e-3:
                return f"{value:.3e}"
            return f"{value:.4g}"
        return str(value)

    def format_table(self) -> str:
        """Render the rows as an aligned plain-text table."""
        if not self.rows:
            return f"== {self.title} ==\n(no rows)\n"
        columns = self.columns
        cells = [
            [self._format_value(row[column]) for column in columns] for row in self.rows
        ]
        widths = [
            max(len(column), *(len(row[i]) for row in cells))
            for i, column in enumerate(columns)
        ]
        header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
        divider = "  ".join("-" * width for width in widths)
        body = "\n".join(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(columns)))
            for row in cells
        )
        parts = [f"== {self.experiment_id}: {self.title} ==", header, divider, body]
        if self.notes:
            parts.append("")
            parts.append(self.notes.strip())
        return "\n".join(parts) + "\n"


def resolve_fault_policy(
    max_retries: int | None = None, shard_timeout: float | None = None
):
    """Resolve runner/CLI fault knobs into a :class:`~repro.faults.FaultPolicy`.

    Returns ``None`` when neither knob is set, so runners forward "no
    preference" and the sharded engine keeps its default policy (2 retries,
    no timeout).  Unset knobs fall back to the policy defaults; validation
    lives in :class:`~repro.faults.FaultPolicy` itself.

    The policy never participates in store keys: recovery replays shard
    streams bit-identically, so like ``workers`` it is execution provenance,
    not part of a result's identity.
    """
    if max_retries is None and shard_timeout is None:
        return None
    from repro.faults import FaultPolicy

    kwargs: dict[str, object] = {}
    if max_retries is not None:
        kwargs["max_retries"] = max_retries
    if shard_timeout is not None:
        kwargs["shard_timeout"] = shard_timeout
    return FaultPolicy(**kwargs)


def sweep_cache(
    store: "ResultStore | str | Path | None",
    experiment_id: str,
    force: bool = False,
) -> "SweepCache":
    """Resolve a runner's ``store=`` argument into a per-sweep cache.

    ``store`` may be a directory path (the CLI's ``--store DIR``), a ready
    :class:`~repro.store.ResultStore`, or ``None`` — the returned
    :class:`~repro.store.SweepCache` is a transparent pass-through in the
    ``None`` case, so runners call ``cache.point(...)`` unconditionally.
    ``force=True`` recomputes and overwrites every point instead of reusing
    stored results.
    """
    # Imported here so the experiment layer only pays for the store when a
    # runner is actually invoked (and to keep base.py import-light).
    from repro.store import SweepCache, open_store

    return SweepCache(open_store(store), experiment_id, force=force)


def schedule_sweep(
    cache: "SweepCache",
    requests: dict[str, PointRequest],
    scheduler: "SweepScheduler",
) -> dict[str, Any]:
    """Measure every requested point, reusing stored results.

    The one cache-then-schedule stage of the sweep figures: each point is
    looked up in ``cache`` (the runner's :class:`~repro.store.SweepCache`, a
    pass-through without a store), and the misses are built and run
    together in one ``scheduler`` run, so their shards share one pool.
    Returns ``{point_id: result}``.
    """
    results: dict[str, Any] = {}
    pending = []
    for point_id, (config, seed, build) in requests.items():
        cached = cache.lookup(config, seed)
        if cached is not None:
            results[point_id] = cached
            continue
        pending.append(
            build(
                point_id,
                # Only adaptive points read or write it, once per Wilson wave.
                checkpoint=cache.checkpoint(config, seed),
                # Fired the moment the point's last shard lands, so a kill
                # mid-sweep leaves every finished point durably stored.
                on_complete=functools.partial(cache.finish, config, seed),
            )
        )
    results.update(scheduler.run(pending))
    return results


__all__ = [
    "ExperimentResult",
    "PointRequest",
    "resolve_fault_policy",
    "schedule_sweep",
    "sweep_cache",
]
