"""Shared contract manifests: the single source of truth for what the linter
(and the dynamic tests that double-check the same invariants) enforce.

Every rule in :mod:`repro.analysis` encodes a contract the repo already
relies on at runtime — the seeding discipline, the store-key resolution
contract, the lazy-import rule for heavy optional dependencies, the dtype
discipline of the hot path, and the picklability of sharded kernels.  The
*scope* of each contract (which packages count as kernel code, which modules
are heavy, which runner keywords must be key-classified) is declared here,
once, so the static checks and their dynamic counterparts (e.g.
``tests/test_dependency_hygiene.py``) cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Packages whose modules are *kernel code*: they execute inside Monte-Carlo
#: trials or decode calls, where nondeterminism or dtype churn silently
#: corrupts seeded results.  DET002 (wall-clock/entropy), DET003 (set-order
#: iteration), and DTY001 (explicit dtypes) apply only here.
KERNEL_PACKAGES: tuple[str, ...] = (
    "repro/simulation/",
    "repro/decoders/",
    "repro/clique/",
)

#: Single modules that are kernel code without being a whole package.
KERNEL_MODULES: tuple[str, ...] = ("repro/bitplane.py",)

#: The one module allowed to touch global RNG machinery: every generator in
#: the library is derived here from explicit seeds (see DET001).
RNG_MODULE = "repro/noise/rng.py"

#: Heavy optional dependencies that must never be imported at module top
#: level anywhere in the package: ``networkx`` survives only as the test
#: suite's differential matching oracle, ``scipy`` only as the differential
#: oracle of the in-tree binomial quantile, and ``matplotlib`` is
#: plotting-only.  A top-level import would put them back on the default
#: decode and bandwidth paths' import closure.
#: IMP001 is the static check; ``tests/test_dependency_hygiene.py`` installs
#: a ``sys.meta_path`` hook built from this same tuple and *runs* the
#: default paths to prove it dynamically.
HEAVY_OPTIONAL_MODULES: tuple[str, ...] = ("matplotlib", "networkx", "scipy")

#: Callables whose ``kernel`` argument crosses process boundaries and
#: therefore must be picklable — no lambdas, no closures, no locally defined
#: functions (PKL001) — mapped to the kernel's positional index (it may also
#: be passed as ``kernel=``).  Every sharded run is a
#: :class:`repro.simulation.scheduler.SweepPoint` handed to the scheduler.
SHARDED_KERNEL_ARGS: dict[str, int] = {"SweepPoint": 1}

#: ``numpy.random`` attributes that are *not* global-state RNG: explicit
#: generator construction and seed plumbing.  Everything else on the module
#: (``seed``, ``rand``, ``randint``, ...) mutates or reads the hidden global
#: stream and is banned outside :data:`RNG_MODULE` (DET001).
NP_RANDOM_ALLOWED: frozenset[str] = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Wall-clock reads banned in kernel code (DET002): they change between
#: runs, so any value derived from them breaks seeded reproducibility.
#: Duration probes (``time.monotonic``/``perf_counter``/``process_time``)
#: stay legal — they measure, they do not seed.
WALLCLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.gmtime",
        "time.localtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
    }
)

#: Call prefixes that always mean OS entropy (DET002).
ENTROPY_PREFIXES: tuple[str, ...] = ("uuid.", "secrets.")

#: numpy allocation constructors that take a ``dtype`` keyword and silently
#: default to float64/inference when it is omitted (DTY001).
DTYPE_ALLOCATORS: frozenset[str] = frozenset(
    {
        "numpy.zeros",
        "numpy.empty",
        "numpy.ones",
        "numpy.full",
        "numpy.array",
    }
)


@dataclass(frozen=True)
class KeyContract:
    """One runner-function/key-resolver pair of the store-key contract.

    Every keyword of ``runner_name`` (defined in ``runner_path``) must either
    be resolved into the store key by one of the ``resolvers`` — appear as a
    parameter, a config-dict key, or a config-subscript key of that function
    — or be classified as key-neutral in
    ``repro.store.keys.KEY_EXCLUDED`` (see :data:`KEY_EXCLUDED_LOCATION`).
    KEY001 enforces this, so a newly added knob fails lint until someone
    decides whether it shapes the numbers.
    """

    runner_path: str
    runner_name: str
    resolvers: tuple[tuple[str, str], ...]


#: The store-key contracts KEY001 cross-references (paths are
#: package-relative, as produced by :func:`repro.analysis.project.split_root`).
KEY_CONTRACTS: tuple[KeyContract, ...] = (
    KeyContract(
        runner_path="repro/simulation/scheduler.py",
        runner_name="memory_point",
        resolvers=(("repro/experiments/fig14.py", "_memory_point_config"),),
    ),
    KeyContract(
        runner_path="repro/simulation/coverage.py",
        runner_name="simulate_clique_coverage",
        resolvers=(("repro/simulation/coverage.py", "resolve_coverage_config"),),
    ),
)

#: Where the central exclusion list lives: ``(module path, constant name)``.
KEY_EXCLUDED_LOCATION: tuple[str, str] = ("repro/store/keys.py", "KEY_EXCLUDED")


def in_kernel_scope(rel_path: str) -> bool:
    """Whether a package-relative module path is kernel code."""
    return rel_path.startswith(KERNEL_PACKAGES) or rel_path in KERNEL_MODULES


def is_rng_module(rel_path: str) -> bool:
    """Whether a package-relative module path is the designated RNG module."""
    return rel_path == RNG_MODULE


__all__ = [
    "DTYPE_ALLOCATORS",
    "ENTROPY_PREFIXES",
    "HEAVY_OPTIONAL_MODULES",
    "KERNEL_MODULES",
    "KERNEL_PACKAGES",
    "KEY_CONTRACTS",
    "KEY_EXCLUDED_LOCATION",
    "KeyContract",
    "NP_RANDOM_ALLOWED",
    "RNG_MODULE",
    "SHARDED_KERNEL_ARGS",
    "WALLCLOCK_CALLS",
    "in_kernel_scope",
    "is_rng_module",
]
