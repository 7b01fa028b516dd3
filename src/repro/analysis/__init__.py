"""Static analysis: an AST-based contract linter for the repro codebase.

The repo's correctness rests on contracts that used to be enforced only
dynamically (or by review): the seeding discipline, the store-key resolution
contract, lazy imports of heavy optional dependencies, the hot-path dtype
discipline, and picklability of sharded kernels.  This package verifies
them *statically* — a single ``ast`` pass per file plus a cross-referencing
project rule — so whole bug classes fail lint before a kernel ever runs.

Rules (see ``repro-qec lint --list-rules`` and README -> "Static analysis"):

========  ============================================================
DET001    no global-state RNG outside ``noise/rng.py``
DET002    no wall-clock/entropy sources in kernel packages
DET003    no set-order iteration into ordered output in kernel packages
IMP001    heavy optional deps (networkx, scipy, matplotlib) never top-level
DTY001    hot-path numpy allocations carry an explicit dtype
KEY001    runner keywords resolve into the store key or ``KEY_EXCLUDED``
PKL001    sharded kernels are picklable (no lambdas/local functions)
========  ============================================================

Suppress a deliberate exception on its own line with
``# repro: allow[RULE]`` (comma-separated ids); pragmas naming unknown rules
are themselves findings (``LNT001``), and unparseable files report
``LNT002``.  Entry points: ``repro-qec lint [paths]`` /
``python -m repro lint`` on the command line, :func:`lint_paths` /
:func:`lint_source` from Python.
"""

from repro.analysis.core import (
    Finding,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.reporting import format_json, format_text

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
]
