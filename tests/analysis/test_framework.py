"""Framework behaviour: pragmas, selection, meta findings, path handling."""

from __future__ import annotations

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.core import META_PRAGMA, META_SYNTAX, all_rules, resolve_rules
from repro.exceptions import ConfigurationError

#: One DET001 violation (line 2) and one IMP001 violation (line 3).
TWO_RULE_SOURCE = "import numpy as np\nnp.random.seed(3)\nimport networkx\n"


class TestSuppressionPragmas:
    def test_same_line_pragma_suppresses_the_finding(self):
        assert (
            lint_source(
                "import numpy as np\n"
                "np.random.seed(3)  # repro: allow[DET001]\n",
                rel="repro/experiments/x.py",
            )
            == []
        )

    def test_pragma_can_name_several_rules(self):
        assert (
            lint_source(
                "import time\n"
                "import numpy as np\n"
                "buf = np.zeros(int(time.time()))  # repro: allow[DET002,DTY001]\n",
                rel="repro/simulation/x.py",
            )
            == []
        )

    def test_pragma_for_a_different_rule_does_not_suppress(self):
        findings = lint_source(
            "import numpy as np\n"
            "np.random.seed(3)  # repro: allow[DTY001]\n",
            rel="repro/experiments/x.py",
        )
        assert [f.rule for f in findings] == ["DET001"]

    def test_pragma_only_covers_its_own_line(self):
        findings = lint_source(
            "import numpy as np  # repro: allow[DET001]\nnp.random.seed(3)\n",
            rel="repro/experiments/x.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("DET001", 2)]

    def test_unknown_rule_pragma_is_itself_a_finding(self):
        findings = lint_source("x = 1  # repro: allow[NOPE999]\n")
        assert [(f.rule, f.line) for f in findings] == [(META_PRAGMA, 1)]
        assert "NOPE999" in findings[0].message

    def test_empty_pragma_is_itself_a_finding(self):
        findings = lint_source("x = 1  # repro: allow[]\n")
        assert [(f.rule, f.line) for f in findings] == [(META_PRAGMA, 1)]

    def test_bad_pragma_does_not_suppress_and_both_are_reported(self):
        findings = lint_source(
            "import numpy as np\n"
            "np.random.seed(3)  # repro: allow[DET01]\n",  # typo'd id
            rel="repro/experiments/x.py",
        )
        assert sorted((f.rule, f.line) for f in findings) == [
            ("DET001", 2),
            (META_PRAGMA, 2),
        ]

    def test_meta_pragma_finding_is_not_suppressible(self):
        # LNT001 cannot be pragma'd away — it is not a valid rule id, so
        # naming it is itself another bad pragma.
        findings = lint_source("x = 1  # repro: allow[LNT001]\n")
        assert [f.rule for f in findings] == [META_PRAGMA]

    def test_pragma_syntax_inside_strings_is_ignored(self):
        # Docstrings and string literals documenting the pragma must neither
        # suppress findings nor trip LNT001 validation.
        findings = lint_source(
            '"""Docs: write `# repro: allow[BOGUS]` on the line."""\n'
            "import numpy as np\n"
            "np.random.seed(3)\n",
            rel="repro/experiments/x.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("DET001", 3)]


class TestRuleSelection:
    def test_registry_has_the_seven_contract_rules(self):
        assert sorted(all_rules()) == [
            "DET001",
            "DET002",
            "DET003",
            "DTY001",
            "IMP001",
            "KEY001",
            "PKL001",
        ]

    def test_select_narrows_to_the_named_rules(self):
        findings = lint_source(TWO_RULE_SOURCE, select=["DET001"])
        assert [f.rule for f in findings] == ["DET001"]

    def test_ignore_drops_the_named_rules(self):
        findings = lint_source(TWO_RULE_SOURCE, ignore=["DET001"])
        assert [f.rule for f in findings] == ["IMP001"]

    def test_unknown_select_id_raises(self):
        with pytest.raises(ConfigurationError, match="NOPE999"):
            resolve_rules(select=["NOPE999"])

    def test_unknown_ignore_id_raises(self):
        with pytest.raises(ConfigurationError, match="--ignore"):
            resolve_rules(ignore=["DET001", "NOPE999"])

    def test_meta_findings_survive_select(self):
        # LNT001 is framework-level: selecting an unrelated rule must not
        # turn off pragma validation.
        findings = lint_source("x = 1  # repro: allow[NOPE999]\n", select=["DET001"])
        assert [f.rule for f in findings] == [META_PRAGMA]


class TestLintPaths:
    def test_nonexistent_path_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            lint_paths([tmp_path / "missing.py"])

    def test_syntax_error_becomes_a_finding_not_a_crash(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        clean = tmp_path / "also_linted.py"
        clean.write_text("import numpy as np\nnp.random.seed(3)\n", encoding="utf-8")
        findings = lint_paths([tmp_path])
        # The broken file reports LNT002 and does not mask the sibling.
        assert [(f.rule, f.path.rsplit("/", 1)[-1]) for f in findings] == [
            ("DET001", "also_linted.py"),
            (META_SYNTAX, "broken.py"),
        ]

    def test_directory_findings_are_sorted_and_deduplicated(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text(
                "import numpy as np\nnp.random.seed(3)\nnp.random.rand(2)\n",
                encoding="utf-8",
            )
        # Passing the directory and a member file must not double-report.
        findings = lint_paths([tmp_path, tmp_path / "a.py"])
        coordinates = [(f.path.rsplit("/", 1)[-1], f.line) for f in findings]
        assert coordinates == [("a.py", 2), ("a.py", 3), ("b.py", 2), ("b.py", 3)]

    def test_files_outside_any_package_are_not_kernel_scope(self, tmp_path):
        # No __init__.py chain: path-scoped rules must not fire whatever the
        # directory happens to be called.
        kernel_lookalike = tmp_path / "simulation"
        kernel_lookalike.mkdir()
        target = kernel_lookalike / "x.py"
        target.write_text("import numpy as np\nbuf = np.zeros(4)\n", encoding="utf-8")
        assert lint_paths([target]) == []
