"""Parsed-module model and cross-file loading for project-level rules.

The linter never imports the code it checks — everything is ``ast``-parsed
text.  Module-local rules only need one file at a time; the cross-referencing
rule (KEY001) additionally needs to *read* sibling modules named by the
contract manifests (a key-resolution function lives in a different file than
the runner whose keywords it classifies).  :class:`Project` provides
that: it indexes the linted files by package-relative path and lazily loads
referenced modules from the same package root on disk.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

#: Suppression pragma: ``# repro: allow[DET001]`` (comma-separated ids).
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")


def split_root(path: Path) -> tuple[Path, str]:
    """Split ``path`` into ``(package root, package-relative posix path)``.

    The package root is the innermost directory that is *not* itself a
    package (has no ``__init__.py``): for ``src/repro/simulation/batch.py``
    that yields ``(src, "repro/simulation/batch.py")``.  A file outside any
    package keeps just its filename, so package-scoped rules never match it.
    """
    path = path.resolve()
    parent = path.parent
    parts = [path.name]
    while (parent / "__init__.py").is_file() and parent.parent != parent:
        parts.append(parent.name)
        parent = parent.parent
    return parent, str(PurePosixPath(*reversed(parts)))


@dataclass
class ParsedModule:
    """One parsed source file plus the metadata rules need."""

    path: Path | None  # absolute path; None for in-memory sources
    display: str  # path string used in findings (posix separators)
    rel: str  # package-relative posix path ("repro/simulation/batch.py")
    root: Path | None  # package root directory; None for in-memory sources
    source: str
    tree: ast.Module
    pragmas: dict[int, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, rel: str, display: str | None = None
    ) -> "ParsedModule":
        """Parse an in-memory source (fixture tests; raises ``SyntaxError``)."""
        module = cls(
            path=None,
            display=display if display is not None else rel,
            rel=rel,
            root=None,
            source=source,
            tree=ast.parse(source),
        )
        module.pragmas = _collect_pragmas(source)
        return module

    @classmethod
    def from_path(cls, path: Path, display: str | None = None) -> "ParsedModule":
        """Parse a file on disk (raises ``SyntaxError``/``OSError``)."""
        source = path.read_text(encoding="utf-8")
        root, rel = split_root(path)
        module = cls(
            path=path.resolve(),
            display=display if display is not None else str(PurePosixPath(path)),
            rel=rel,
            root=root,
            source=source,
            tree=ast.parse(source, filename=str(path)),
        )
        module.pragmas = _collect_pragmas(source)
        return module

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether a finding of ``rule_id`` at ``line`` is pragma-suppressed."""
        return rule_id in self.pragmas.get(line, ())


def _collect_pragmas(source: str) -> dict[int, tuple[str, ...]]:
    """Map line number -> rule ids named by a same-line suppression pragma.

    Only genuine ``#`` comments count — the source is tokenized, so pragma
    syntax quoted inside a docstring or string literal (documentation, test
    fixtures) is never mistaken for a suppression.  Malformed entries (empty
    brackets, unknown ids) are kept verbatim; the linter validates them
    against the rule registry and reports LNT001, so a typo in a pragma can
    never silently suppress nothing.
    """
    pragmas: dict[int, tuple[str, ...]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return pragmas  # only reachable on sources ast.parse also rejects
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = PRAGMA_RE.search(token.string)
        if match is None:
            continue
        ids = tuple(part.strip() for part in match.group(1).split(","))
        pragmas[token.start[0]] = tuple(part for part in ids if part)
    return pragmas


class Project:
    """The linted module set plus lazy access to contract-referenced files."""

    def __init__(self, modules: list[ParsedModule]) -> None:
        self._linted: dict[str, ParsedModule] = {}
        for module in modules:
            # First occurrence wins: the same rel path linted twice (e.g. a
            # path passed twice on the CLI) is still one module.
            self._linted.setdefault(module.rel, module)
        self._loaded: dict[Path, ParsedModule | None] = {}

    @property
    def modules(self) -> tuple[ParsedModule, ...]:
        return tuple(self._linted.values())

    def linted(self, rel: str) -> ParsedModule | None:
        """The linted module with this package-relative path, if any."""
        return self._linted.get(rel)

    def load(self, rel: str, anchor: ParsedModule) -> ParsedModule | None:
        """Load a package-relative path, preferring the linted set.

        Falls back to ``anchor``'s package root on disk, so a contract can
        reference a module that was not part of the lint invocation (e.g.
        the key-resolution function when only the runner file is linted).
        Returns ``None`` when the file is absent or unparseable — callers
        turn that into an explicit finding rather than a crash.
        """
        module = self._linted.get(rel)
        if module is not None:
            return module
        if anchor.root is None:
            return None
        path = (anchor.root / rel).resolve()
        if path in self._loaded:
            return self._loaded[path]
        loaded: ParsedModule | None = None
        if path.is_file():
            try:
                loaded = ParsedModule.from_path(path)
            except (SyntaxError, OSError, UnicodeDecodeError):
                loaded = None
        self._loaded[path] = loaded
        return loaded


__all__ = ["ParsedModule", "PRAGMA_RE", "Project", "split_root"]
