"""KEY001 — every runner keyword is store-key-classified.

The PR 4 store serves cached results keyed by a *fully resolved* point
config.  That only stays sound if every keyword of the Monte-Carlo runners
is consciously classified: either it shapes the numbers (then the
key-resolution function must fold it into the config) or it provably does
not (then it belongs in :data:`repro.store.keys.KEY_EXCLUDED` with a stated
reason).  A keyword in neither place is exactly the "added a kwarg, forgot
the store key, served stale results" bug — this rule makes it fail lint at
the signature, before any result is ever cached.

The check also runs the other way: a ``KEY_EXCLUDED`` entry that is no
longer a keyword of any contract runner is stale and is reported at the
entry, so the manifest shrinks along with the knobs.  That direction needs
every runner's signature, so it only fires when every contract runner is
part of the lint run.
"""

from __future__ import annotations

import ast

from repro.analysis import contracts
from repro.analysis.core import Finding, Rule
from repro.analysis.project import ParsedModule, Project


def _module_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _named_params(fn: ast.FunctionDef) -> list[ast.arg]:
    params = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
    return [param for param in params if param.arg not in ("self", "cls")]


def _resolver_vocabulary(fn: ast.FunctionDef) -> set[str]:
    """Names a key-resolution function demonstrably folds into the key.

    Its parameter names, every string key of a dict literal in its body, and
    every string index of a subscript assignment (``config["tiers"] = ...``).
    Docstrings and other free-floating strings deliberately do *not* count —
    mentioning a keyword is not resolving it.
    """
    vocabulary = {param.arg for param in _named_params(fn)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    vocabulary.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    vocabulary.add(target.slice.value)
    return vocabulary


def _key_excluded_entries(module: ParsedModule) -> list[ast.Constant] | None:
    """String entry nodes of the ``KEY_EXCLUDED`` constant (dict/set/sequence)."""
    _, constant_name = contracts.KEY_EXCLUDED_LOCATION
    for node in module.tree.body:
        value = None
        if isinstance(node, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == constant_name
                for target in node.targets
            ):
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == constant_name
            ):
                value = node.value
        if value is None:
            continue
        if isinstance(value, ast.Dict):
            elements = value.keys
        elif isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            elements = value.elts
        else:
            return None
        return [
            element
            for element in elements
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
    return None


def _load_key_excluded(module: ParsedModule) -> set[str] | None:
    """String entries of the ``KEY_EXCLUDED`` constant."""
    entries = _key_excluded_entries(module)
    return None if entries is None else {entry.value for entry in entries}


class StoreKeyClassificationRule(Rule):
    """KEY001 — runner keywords resolve into the store key or are excluded."""

    id = "KEY001"
    title = "store-key classification of runner keywords"
    contract = (
        "every keyword of scheduler.memory_point / simulate_clique_coverage "
        "must appear in its key-resolution function "
        "(fig14._memory_point_config / coverage.resolve_coverage_config) or "
        "in repro.store.keys.KEY_EXCLUDED, and every KEY_EXCLUDED entry must "
        "be a keyword of one of them"
    )

    def check_project(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        runners = []
        for contract in contracts.KEY_CONTRACTS:
            runner_module = project.linted(contract.runner_path)
            if runner_module is None:
                continue
            findings.extend(self._check_contract(project, runner_module, contract))
            runners.append(
                (runner_module, _module_function(runner_module.tree, contract.runner_name))
            )
        if len(runners) == len(contracts.KEY_CONTRACTS) and all(
            runner is not None for _, runner in runners
        ):
            findings.extend(self._check_stale_exclusions(project, runners))
        return findings

    def _check_stale_exclusions(
        self,
        project: Project,
        runners: list[tuple[ParsedModule, ast.FunctionDef]],
    ) -> list[Finding]:
        """Report ``KEY_EXCLUDED`` entries no contract runner accepts."""
        excluded_path, excluded_name = contracts.KEY_EXCLUDED_LOCATION
        keys_module = project.load(excluded_path, anchor=runners[0][0])
        entries = _key_excluded_entries(keys_module) if keys_module is not None else None
        if entries is None:
            return []  # already reported per contract by _check_contract
        keywords = {param.arg for _, runner in runners for param in _named_params(runner)}
        names = ", ".join(contract.runner_name for contract in contracts.KEY_CONTRACTS)
        return [
            Finding(
                path=keys_module.display,
                line=entry.lineno,
                col=entry.col_offset + 1,
                rule=self.id,
                message=(
                    f"{excluded_name} entry {entry.value!r} is not a keyword of "
                    f"any store-key contract runner ({names}); remove the "
                    f"stale exclusion"
                ),
            )
            for entry in entries
            if entry.value not in keywords
        ]

    def _check_contract(
        self,
        project: Project,
        runner_module: ParsedModule,
        contract: contracts.KeyContract,
    ) -> list[Finding]:
        def _finding(line: int, col: int, message: str) -> Finding:
            return Finding(
                path=runner_module.display,
                line=line,
                col=col,
                rule=self.id,
                message=message,
            )

        runner = _module_function(runner_module.tree, contract.runner_name)
        if runner is None:
            return [
                _finding(
                    1,
                    1,
                    f"store-key contract runner {contract.runner_name!r} not "
                    f"found in {contract.runner_path}; update "
                    f"repro.analysis.contracts.KEY_CONTRACTS",
                )
            ]

        vocabulary: set[str] = set()
        resolver_labels = []
        for resolver_path, resolver_name in contract.resolvers:
            resolver_labels.append(f"{resolver_path}::{resolver_name}")
            resolver_module = project.load(resolver_path, anchor=runner_module)
            resolver = (
                _module_function(resolver_module.tree, resolver_name)
                if resolver_module is not None
                else None
            )
            if resolver is None:
                return [
                    _finding(
                        runner.lineno,
                        runner.col_offset + 1,
                        f"key-resolution function {resolver_name!r} not found "
                        f"in {resolver_path}; the store-key contract of "
                        f"{contract.runner_name} cannot be verified",
                    )
                ]
            vocabulary |= _resolver_vocabulary(resolver)

        excluded_path, excluded_name = contracts.KEY_EXCLUDED_LOCATION
        keys_module = project.load(excluded_path, anchor=runner_module)
        excluded = _load_key_excluded(keys_module) if keys_module is not None else None
        if excluded is None:
            return [
                _finding(
                    runner.lineno,
                    runner.col_offset + 1,
                    f"central exclusion list {excluded_name} not found in "
                    f"{excluded_path}; the store-key contract of "
                    f"{contract.runner_name} cannot be verified",
                )
            ]

        findings = []
        resolvers = ", ".join(resolver_labels)
        for param in _named_params(runner):
            if param.arg in vocabulary or param.arg in excluded:
                continue
            findings.append(
                _finding(
                    param.lineno,
                    param.col_offset + 1,
                    f"keyword {param.arg!r} of {contract.runner_name} is "
                    f"neither resolved into the store key by {resolvers} nor "
                    f"classified key-neutral in {excluded_path}::"
                    f"{excluded_name} — decide whether it shapes stored "
                    f"results",
                )
            )
        return findings


__all__ = ["StoreKeyClassificationRule"]
