"""Single-pass AST-visitor linter framework with pluggable rules.

Each linted file is parsed once and walked once; every rule registers the
node types it cares about (``node_types``) and receives exactly the matching
nodes, together with a :class:`ModuleContext` that carries the bookkeeping
all rules share — import alias tables, the enclosing-scope stack, and a
``report`` sink that applies the ``# repro: allow[RULE]`` suppression pragma.
Cross-file rules additionally implement ``check_project`` and run once per
lint invocation over the whole :class:`~repro.analysis.project.Project`.

Two meta findings are produced by the framework itself and are deliberately
*not* suppressible or selectable:

* ``LNT001`` — a suppression pragma naming an unknown rule id (or naming
  nothing): a typo here would otherwise silently suppress nothing.
* ``LNT002`` — a file that does not parse.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Sequence

from repro.analysis.project import ParsedModule, Project
from repro.exceptions import ConfigurationError

#: Framework-level finding ids (always active; not pragma-suppressible).
META_PRAGMA = "LNT001"
META_SYNTAX = "LNT002"


@dataclass(frozen=True, order=True)
class Finding:
    """One linter finding, ordered for stable output."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def coordinate(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class Rule:
    """Base class of a pluggable lint rule.

    Subclasses set ``id`` / ``title`` / ``contract`` and implement any of:

    * ``visit(ctx, node)`` — called for nodes matching ``node_types``;
    * ``finish(ctx)`` — called once after the module walk (for rules that
      accumulate per-module state, e.g. PKL001's nested-def table);
    * ``check_project(project)`` — called once per lint invocation with the
      full :class:`Project` (cross-file rules: KEY001);
    * ``applies_to(module)`` — path scoping (e.g. kernel packages only).
    """

    id: str = ""
    title: str = ""
    contract: str = ""
    node_types: tuple[type, ...] = ()

    def applies_to(self, module: ParsedModule) -> bool:
        return True

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:  # pragma: no cover
        pass

    def finish(self, ctx: "ModuleContext") -> None:
        pass

    def check_project(self, project: Project) -> list[Finding]:
        return []


class ModuleContext:
    """Per-module state shared by all rules during the single walk."""

    def __init__(self, module: ParsedModule) -> None:
        self.module = module
        self.findings: list[Finding] = []
        #: ``alias -> dotted module`` for ``import x [as y]`` bindings.
        self.module_aliases: dict[str, str] = {}
        #: ``name -> dotted "module.attr"`` for ``from m import n [as a]``.
        self.from_imports: dict[str, str] = {}
        #: Enclosing function/class nodes, outermost first (the node being
        #: visited is *not* on the stack while its own ``visit`` runs).
        self.scope_stack: list[ast.AST] = []
        #: Depth of enclosing ``if TYPE_CHECKING:`` blocks.
        self.type_checking_depth = 0
        #: Per-module scratch space for stateful rules, keyed by rule id
        #: (rule instances are shared across modules, so state lives here).
        self.rule_state: dict[str, dict] = {}

    @property
    def in_function(self) -> bool:
        return any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in self.scope_stack
        )

    def record_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    self.module_aliases[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the *top* package name.
                    top = alias.name.split(".", 1)[0]
                    self.module_aliases[top] = top
        elif node.module is not None and node.level == 0:
            for alias in node.names:
                local = alias.asname if alias.asname is not None else alias.name
                self.from_imports[local] = f"{node.module}.{alias.name}"

    def dotted_name(self, expr: ast.AST) -> str | None:
        """Canonical dotted name of an attribute chain rooted in an import.

        ``np.random.seed`` resolves to ``"numpy.random.seed"`` whatever the
        local aliasing (``import numpy as np``, ``from numpy import random``,
        ``import numpy.random as npr``, ...).  Names that are not import
        bindings resolve to ``None`` — rules treat those as local values.
        """
        parts: list[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        base = self.module_aliases.get(expr.id)
        if base is None:
            base = self.from_imports.get(expr.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def report(self, node: ast.AST, rule_id: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self.module.suppressed(line, rule_id):
            return
        self.findings.append(
            Finding(
                path=self.module.display,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule_id,
                message=message,
            )
        )


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


class _Walker:
    """Drives the one pass over a module's AST, dispatching to rules."""

    def __init__(self, ctx: ModuleContext, rules: Sequence[Rule]) -> None:
        self._ctx = ctx
        self._rules = rules

    def run(self) -> None:
        for node in self._ctx.module.tree.body:
            self._visit(node)

    def _visit(self, node: ast.AST) -> None:
        ctx = self._ctx
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            ctx.record_import(node)
        for rule in self._rules:
            if rule.node_types and isinstance(node, rule.node_types):
                rule.visit(ctx, node)
        opens_scope = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        )
        if opens_scope:
            ctx.scope_stack.append(node)
        try:
            if isinstance(node, ast.If) and _is_type_checking_test(node.test):
                ctx.type_checking_depth += 1
                for child in node.body:
                    self._visit(child)
                ctx.type_checking_depth -= 1
                for child in node.orelse:
                    self._visit(child)
            else:
                for child in ast.iter_child_nodes(node):
                    self._visit(child)
        finally:
            if opens_scope:
                ctx.scope_stack.pop()


def all_rules() -> dict[str, type[Rule]]:
    """The rule registry, id -> class (import-cycle-free lazy assembly)."""
    from repro.analysis.rules_determinism import (
        GlobalRngRule,
        SetOrderRule,
        WallClockRule,
    )
    from repro.analysis.rules_dtype import ExplicitDtypeRule
    from repro.analysis.rules_imports import LazyHeavyImportRule
    from repro.analysis.rules_keys import StoreKeyClassificationRule
    from repro.analysis.rules_pickle import PicklableKernelRule

    rules = (
        GlobalRngRule,
        WallClockRule,
        SetOrderRule,
        LazyHeavyImportRule,
        ExplicitDtypeRule,
        StoreKeyClassificationRule,
        PicklableKernelRule,
    )
    return {rule.id: rule for rule in rules}


def resolve_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """Instantiate the active rule set, validating ``--select/--ignore`` ids."""
    registry = all_rules()

    def _validate(ids: Iterable[str], flag: str) -> set[str]:
        wanted = {rule_id.strip() for rule_id in ids if rule_id.strip()}
        unknown = sorted(wanted - set(registry))
        if unknown:
            raise ConfigurationError(
                f"unknown rule id(s) in {flag}: {unknown}; "
                f"valid rules are {sorted(registry)}"
            )
        return wanted

    active = set(registry)
    if select is not None:
        active = _validate(select, "--select")
    if ignore is not None:
        active -= _validate(ignore, "--ignore")
    return [registry[rule_id]() for rule_id in sorted(active)]


def _pragma_findings(module: ParsedModule) -> list[Finding]:
    """Validate every suppression pragma against the full rule registry."""
    known = set(all_rules())
    findings = []
    for line in sorted(module.pragmas):
        ids = module.pragmas[line]
        if not ids:
            findings.append(
                Finding(
                    path=module.display,
                    line=line,
                    col=1,
                    rule=META_PRAGMA,
                    message=(
                        "suppression pragma names no rule: use "
                        "'# repro: allow[RULE1,RULE2]'"
                    ),
                )
            )
            continue
        for rule_id in ids:
            if rule_id not in known:
                findings.append(
                    Finding(
                        path=module.display,
                        line=line,
                        col=1,
                        rule=META_PRAGMA,
                        message=(
                            f"suppression pragma names unknown rule "
                            f"{rule_id!r}; valid rules are {sorted(known)}"
                        ),
                    )
                )
    return findings


def lint_module(module: ParsedModule, rules: Sequence[Rule]) -> list[Finding]:
    """Run the module-local rules (plus pragma validation) over one module."""
    active = [rule for rule in rules if rule.applies_to(module)]
    ctx = ModuleContext(module)
    if active:
        _Walker(ctx, active).run()
        for rule in active:
            rule.finish(ctx)
    return ctx.findings + _pragma_findings(module)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def lint_paths(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint files and directories; the main library entry point.

    Raises :class:`~repro.exceptions.ConfigurationError` for unknown rule
    ids or nonexistent paths; unparseable *files* become ``LNT002`` findings
    instead (one bad file must not mask the rest of the tree).
    """
    rules = resolve_rules(select, ignore)
    resolved = [Path(path) for path in paths]
    for path in resolved:
        if not path.exists():
            raise ConfigurationError(f"lint path does not exist: {path}")
    findings: list[Finding] = []
    modules: list[ParsedModule] = []
    for file_path in iter_python_files(resolved):
        display = str(PurePosixPath(file_path))
        try:
            modules.append(ParsedModule.from_path(file_path, display=display))
        except SyntaxError as error:
            findings.append(
                Finding(
                    path=display,
                    line=error.lineno or 1,
                    col=(error.offset or 1),
                    rule=META_SYNTAX,
                    message=f"file does not parse: {error.msg}",
                )
            )
    project = Project(modules)
    for module in modules:
        findings.extend(lint_module(module, rules))
    by_display = {module.display: module for module in modules}
    for rule in rules:
        for finding in rule.check_project(project):
            module = by_display.get(finding.path)
            if module is not None and module.suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    return sorted(set(findings))


def lint_source(
    source: str,
    rel: str = "snippet.py",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one in-memory source under a virtual package-relative path.

    The fixture-test entry point: ``rel`` controls path-scoped rules, e.g.
    ``rel="repro/simulation/foo.py"`` puts the snippet in kernel scope.
    Cross-file rules do not run (there is no package root to resolve
    against) — use :func:`lint_paths` on a real tree for those.
    """
    rules = resolve_rules(select, ignore)
    module = ParsedModule.from_source(source, rel=rel)
    return sorted(set(lint_module(module, rules)))


__all__ = [
    "Finding",
    "META_PRAGMA",
    "META_SYNTAX",
    "ModuleContext",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_module",
    "lint_paths",
    "lint_source",
    "resolve_rules",
]
