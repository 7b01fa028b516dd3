"""TIER001 — registered tier decoders satisfy the cascade tier contract.

``repro.decoders.registry.TIER_DECODERS`` is the set of classes a cascade
spec can name.  The cascade hands whatever final tier the spec resolves to
its off-chip windows through ``decode_event_windows``, which the base class
serves window by window through ``decode_events_bitmap`` (a decoder that
solves windows together overrides it and keeps the hook for single
windows), and generic callers fall back to per-trial ``decode`` — a
registered class missing either only fails, or silently degrades to the
slow detection-mask path, at decode time, deep inside a worker process.  This rule statically walks each
registered class (and its in-tree bases) and fails lint at the registry
entry instead.
"""

from __future__ import annotations

import ast

from repro.analysis import contracts
from repro.analysis.core import Finding, Rule, build_import_context
from repro.analysis.project import ParsedModule, Project

_MAX_BASE_DEPTH = 10


def _module_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _is_abstract(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in fn.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "abstractmethod":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr == "abstractmethod":
            return True
    return False


def _concrete_methods(
    project: Project, module: ParsedModule, class_name: str, depth: int = 0
) -> set[str] | None:
    """Concrete method names of a class, following in-tree bases.

    Returns ``None`` when the class cannot be found statically — callers
    report that as its own finding rather than guessing.
    """
    if depth > _MAX_BASE_DEPTH:
        return set()
    class_node = _module_class(module.tree, class_name)
    if class_node is None:
        return None
    methods = {
        node.name
        for node in class_node.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _is_abstract(node)
    }
    ctx = build_import_context(module)
    for base in class_node.bases:
        base_methods: set[str] | None = None
        if isinstance(base, ast.Name) and _module_class(module.tree, base.id):
            base_methods = _concrete_methods(project, module, base.id, depth + 1)
        else:
            dotted = ctx.dotted_name(base)
            if dotted is not None and "." in dotted:
                base_module_name, base_class = dotted.rsplit(".", 1)
                base_module = project.load_dotted(base_module_name, anchor=module)
                if base_module is not None:
                    base_methods = _concrete_methods(
                        project, base_module, base_class, depth + 1
                    )
        if base_methods:
            methods |= base_methods
    return methods


class TierContractRule(Rule):
    """TIER001 — TIER_DECODERS entries define the tier-contract methods."""

    id = "TIER001"
    title = "tier registry classes satisfy the cascade contract"
    contract = (
        "every class registered in TIER_DECODERS must statically define "
        "(itself or via in-tree bases, abstract declarations excluded) the "
        "methods its tier role requires: decode and decode_events_bitmap"
    )

    def check_project(self, project: Project) -> list[Finding]:
        registry_path, registry_name = contracts.TIER_REGISTRY_LOCATION
        registry_module = project.linted(registry_path)
        if registry_module is None:
            return []
        registry_dict = self._registry_dict(registry_module, registry_name)
        if registry_dict is None:
            return [
                Finding(
                    path=registry_module.display,
                    line=1,
                    col=1,
                    rule=self.id,
                    message=(
                        f"tier registry {registry_name} not found as a dict "
                        f"literal in {registry_path}; update "
                        f"repro.analysis.contracts.TIER_REGISTRY_LOCATION"
                    ),
                )
            ]
        ctx = build_import_context(registry_module)
        findings = []
        for key, value in zip(registry_dict.keys, registry_dict.values):
            tier_name = (
                key.value
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
                else None
            )
            finding = self._check_entry(project, registry_module, ctx, tier_name, value)
            if finding is not None:
                findings.append(finding)
        return findings

    def _registry_dict(
        self, module: ParsedModule, registry_name: str
    ) -> ast.Dict | None:
        for node in module.tree.body:
            value = None
            if isinstance(node, ast.Assign):
                if any(
                    isinstance(target, ast.Name) and target.id == registry_name
                    for target in node.targets
                ):
                    value = node.value
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == registry_name
                ):
                    value = node.value
            if isinstance(value, ast.Dict):
                return value
        return None

    def _check_entry(
        self,
        project: Project,
        registry_module: ParsedModule,
        ctx,
        tier_name: str | None,
        value: ast.AST,
    ) -> Finding | None:
        def _finding(message: str) -> Finding:
            return Finding(
                path=registry_module.display,
                line=getattr(value, "lineno", 1),
                col=getattr(value, "col_offset", 0) + 1,
                rule=self.id,
                message=message,
            )

        label = repr(tier_name) if tier_name is not None else "<non-string key>"
        dotted = ctx.dotted_name(value)
        if dotted is None or "." not in dotted:
            return _finding(
                f"tier decoder {label}: cannot statically resolve the "
                f"registered class to an in-tree module; register classes "
                f"by direct import"
            )
        module_name, class_name = dotted.rsplit(".", 1)
        class_module = project.load_dotted(module_name, anchor=registry_module)
        if class_module is None:
            return _finding(
                f"tier decoder {label}: module {module_name!r} not found "
                f"from the package root, so the tier contract cannot be "
                f"verified"
            )
        methods = _concrete_methods(project, class_module, class_name)
        if methods is None:
            return _finding(
                f"tier decoder {label}: class {class_name!r} not found in "
                f"{module_name}, so the tier contract cannot be verified"
            )
        missing = [
            method
            for method in contracts.TIER_REQUIRED_METHODS
            if method not in methods
        ]
        if missing:
            return _finding(
                f"tier decoder {label} ({class_name}) lacks concrete "
                f"{missing} required by the cascade tier contract (see "
                f"repro.decoders.base.Decoder)"
            )
        return None


__all__ = ["TierContractRule"]
