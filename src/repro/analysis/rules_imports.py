"""IMP001 — heavy optional dependencies stay off module top level.

The static counterpart of ``tests/test_dependency_hygiene.py``: that test
installs a ``sys.meta_path`` hook (built from the same
:data:`repro.analysis.contracts.HEAVY_OPTIONAL_MODULES` manifest) and *runs*
the default decode and bandwidth paths to prove no heavy optional
dependency is ever imported; this rule catches the violation at the import
statement itself, in every module, on paths no dynamic test happens to
exercise.
"""

from __future__ import annotations

import ast

from repro.analysis import contracts
from repro.analysis.core import ModuleContext, Rule


class LazyHeavyImportRule(Rule):
    """IMP001 — import heavy optional deps lazily, inside the needing function."""

    id = "IMP001"
    title = "no top-level heavy optional imports"
    contract = (
        "optional/heavy dependencies (networkx, scipy, matplotlib) may only be "
        "imported inside the function that needs them (or under "
        "TYPE_CHECKING), never at module top level — shared manifest: "
        "repro.analysis.contracts.HEAVY_OPTIONAL_MODULES"
    )
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, ctx: ModuleContext, node: ast.Import | ast.ImportFrom) -> None:
        if ctx.in_function or ctx.type_checking_depth:
            return
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif node.module is not None and node.level == 0:
            imported = [node.module]
        else:
            return
        for name in imported:
            top = name.split(".", 1)[0]
            if top in contracts.HEAVY_OPTIONAL_MODULES:
                ctx.report(
                    node,
                    self.id,
                    f"heavy optional dependency {top!r} imported at module "
                    f"top level; import it lazily inside the function that "
                    f"needs it (dynamic twin: tests/test_dependency_hygiene.py)",
                )


__all__ = ["LazyHeavyImportRule"]
