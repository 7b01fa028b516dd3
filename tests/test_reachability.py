"""Every production module is reached from the command line.

Production code is what the CLI runs: a module under ``src/repro`` that no
import chain from ``repro.cli`` or ``repro.__main__`` reaches is dead, or a
test oracle that belongs under ``tests/``.  The walk is static (``ast``
only, nothing is imported) and follows imports at any depth, the CLI's lazy
ones inside functions included.

A package's ``__init__`` counts only through the names actually imported
from it: ``from repro.decoders import MWPMDecoder`` reaches the module that
defines ``MWPMDecoder``, not every module the ``__init__`` re-exports.  So a
re-export alone never keeps a module alive.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROOTS = ("repro.cli", "repro.__main__")


def _path(module: str) -> Path | None:
    """Source file of an in-tree module or package (``None`` if not in tree)."""
    base = SRC.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


@lru_cache(maxsize=None)
def _tree(module: str) -> ast.Module:
    return ast.parse(_path(module).read_text(encoding="utf-8"))


def _imports(tree: ast.AST) -> set[str]:
    """Modules reached by every import statement anywhere in ``tree``."""
    reached: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _path(alias.name) and not _is_package(alias.name):
                    reached.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and _path(node.module):
            for alias in node.names:
                reached |= _from_import(node.module, alias.name)
    return reached


def _from_import(module: str, name: str) -> set[str]:
    """Modules reached by ``from module import name``."""
    if not _is_package(module):
        return {module}
    submodule = f"{module}.{name}"
    if _path(submodule):
        return set() if _is_package(submodule) else {submodule}
    init = _tree(module)
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _from_import(node.module, alias.name)
    # ``name`` is defined in the ``__init__`` itself (or is ``*``): running
    # that body runs all of its imports.
    return _imports(init)


def _reached() -> set[str]:
    reached = set(ROOTS)
    frontier = list(ROOTS)
    while frontier:
        for module in _imports(_tree(frontier.pop())) - reached:
            reached.add(module)
            frontier.append(module)
    return reached


PRODUCTION_MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in (SRC / "repro").rglob("*.py")
    if path.name != "__init__.py"
)


@pytest.fixture(scope="module")
def reached() -> set[str]:
    return _reached()


@pytest.mark.parametrize("module", PRODUCTION_MODULES)
def test_module_is_reached_from_the_cli(module, reached):
    assert module in reached, (
        f"{module} is not imported, statically, by any chain from "
        f"{' or '.join(ROOTS)}: delete it, or move it under tests/ as an oracle"
    )


def test_walk_sees_the_whole_package():
    assert len(PRODUCTION_MODULES) > 50
    assert set(ROOTS) <= set(PRODUCTION_MODULES)
