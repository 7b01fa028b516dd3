"""Measurement primitives shared by every workload.

* :class:`Recorder` — an in-memory span recorder (name, start, end, parent,
  call id on the system-wide monotonic clock, so spans recorded inside pool
  workers line up with the parent's) with self-time attribution;
* percentile helpers, including the reporting rule "the highest percentile
  with at least ten samples beyond it";
* the two-proportion z-test and Poisson limit behind the statistical
  correctness gate;
* the hardware/software fingerprint recorded with every result.

Nothing here imports the library under test, so the setup probe and the unit
tests stay cheap.
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Metric names, as the benchmark output contract allows them.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Percentiles a tail timing may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Environment variables that cap BLAS/OpenMP thread pools.  The benchmark
#: pins each to 1 so no run uses more threads or processes than ``nproc``.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def check_metric_name(name: str) -> str:
    """Return ``name`` if the output contract allows it, else raise."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"metric name {name!r} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}")
    return name


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` distinct samples rank above the ``q``-th percentile.

    The percentile sits at zero-based rank ``(count - 1) * q / 100`` (see
    :func:`percentile`); every sample at a higher integer rank is beyond it.
    """
    if count <= 0:
        return 0
    return count - 1 - math.floor((count - 1) * q / 100.0)


def highest_supported_percentile(count: int, ladder=TAIL_LADDER) -> float | None:
    """The highest ladder percentile with at least :data:`TAIL_MIN_BEYOND`
    samples beyond it, or ``None`` when even the lowest rung has fewer."""
    for q in ladder:
        if samples_beyond(count, q) >= TAIL_MIN_BEYOND:
            return q
    return None


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One timed interval.  ``parent`` is an index into the recorder's list."""

    name: str
    start: float
    end: float
    parent: int | None
    call_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


class Recorder:
    """In-memory span recorder; spans are only read once the run ends.

    ``span(name)`` nests under the innermost open span and yields its index.
    Spans timed elsewhere (inside pool workers) are attached with :meth:`add`.  Counters
    (``count``) and per-sample values (``observe``) sit next to the spans so
    ratios are measured at the same boundaries.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self.call_id = 0

    @contextmanager
    def span(self, name: str):
        start = time.monotonic()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, start, parent, self.call_id))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index] = Span(name, start, time.monotonic(), parent, self.call_id)

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        """Attach a span timed elsewhere (e.g. in a pool worker) under ``parent``."""
        self.spans.append(Span(name, start, end, parent, self.call_id))
        return len(self.spans) - 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span.duration - covered_length(
                children.get(index, ()), span.start, span.end
            )
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]


# ----------------------------------------------------------------------
# Statistics for the correctness gate
# ----------------------------------------------------------------------
def two_proportion_z(successes_a: int, trials_a: int, successes_b: int, trials_b: int) -> float:
    """Pooled two-proportion z statistic (0 when both samples are degenerate)."""
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if variance == 0.0:
        return 0.0
    return (successes_a / trials_a - successes_b / trials_b) / math.sqrt(variance)


def poisson_upper_limit(mean: float, tail: float) -> int:
    """Smallest ``k`` with ``P(X > k) <= tail`` for ``X ~ Poisson(mean)``."""
    if not 0.0 <= mean <= 500.0:  # exp(-mean) would underflow
        raise ValueError(f"Poisson mean {mean} outside [0, 500]")
    term = cdf = math.exp(-mean)
    k = 0
    while 1.0 - cdf > tail:
        k += 1
        term *= mean / k
        cdf += term
    return k


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at one thread; call before importing numpy."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    """CPUs this process may run on (the affinity mask, not the host count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fingerprint() -> dict[str, object]:
    """Hardware/software facts recorded with every result."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a library dependency
        scipy_version = None
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or with ``children`` that of its
    largest reaped child so far (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
