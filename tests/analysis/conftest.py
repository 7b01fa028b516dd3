"""Shared fixtures for the linter test suite.

``scratch_tree`` copies the contract-bearing slice of the real package into
a temp directory, so the cross-file rule (KEY001) can be exercised —
and deliberately broken — without touching the working tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: The real package the scratch tree is copied from.
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Files the cross-file contract references (runners, resolvers and the
#: exclusion list).
_COPIED = (
    "simulation/scheduler.py",
    "simulation/coverage.py",
    "experiments/fig14.py",
    "store/keys.py",
)

_PACKAGES = ("", "simulation", "experiments", "store")


@pytest.fixture
def scratch_tree(tmp_path: Path) -> Path:
    """A copy of the contract slice of ``repro`` under a fresh package root.

    Returns the ``repro`` package directory; its parent is the package root
    ``split_root`` resolves, so package-relative paths match the real tree.
    """
    pkg = tmp_path / "pkgroot" / "repro"
    for sub in _PACKAGES:
        (pkg / sub).mkdir(parents=True, exist_ok=True)
        (pkg / sub / "__init__.py").write_text("", encoding="utf-8")
    for rel in _COPIED:
        (pkg / rel).write_text((REPO_SRC / rel).read_text(encoding="utf-8"))
    return pkg
