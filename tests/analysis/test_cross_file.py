"""The cross-file rule (KEY001) on a scratch copy of the real tree.

The acceptance contract of KEY001 is regression-shaped: adding a fake
result-affecting keyword to a runner signature must fail lint until the
keyword is either folded into key resolution or classified key-neutral in
``repro.store.keys.KEY_EXCLUDED``.  These tests perform exactly that edit
sequence on a copied tree, never on the working one.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths

FAKE_KWARG = "    fake_knob: float = 0.5,"


def edit(path: Path, old: str, new: str) -> None:
    """Targeted text replacement that fails loudly if the anchor is gone."""
    source = path.read_text(encoding="utf-8")
    assert old in source, f"edit anchor not found in {path}: {old!r}"
    path.write_text(source.replace(old, new), encoding="utf-8")


def line_of(path: Path, needle: str) -> int:
    """1-based line number of the (unique) line containing ``needle``."""
    matches = [
        number
        for number, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if needle in text
    ]
    assert len(matches) == 1, f"{needle!r} matched lines {matches} in {path}"
    return matches[0]

def inject_fake_kwarg(scratch_tree):
    # memory_point is the one scheduler adapter with a decoder_name keyword.
    edit(
        scratch_tree / "simulation/scheduler.py",
        "    decoder_name: str | None = None,\n",
        f"    decoder_name: str | None = None,\n{FAKE_KWARG}\n",
    )


class TestKey001:
    def test_the_real_tree_satisfies_the_contract(self, scratch_tree):
        assert (
            lint_paths(
                [
                    scratch_tree / "simulation/scheduler.py",
                    scratch_tree / "simulation/coverage.py",
                ]
            )
            == []
        )

    def test_unclassified_runner_keyword_fails_lint(self, scratch_tree):
        inject_fake_kwarg(scratch_tree)
        runner = scratch_tree / "simulation/scheduler.py"
        findings = lint_paths([runner])
        assert [(f.rule, f.line) for f in findings] == [
            ("KEY001", line_of(runner, "fake_knob"))
        ]
        assert "fake_knob" in findings[0].message
        assert "KEY_EXCLUDED" in findings[0].message

    def test_unclassified_memory_point_keyword_fails_lint(self, scratch_tree):
        # memory_point runs every stored fig14 point, so its real keywords
        # are under the contract: declassifying one is a finding at its
        # signature.
        edit(scratch_tree / "store/keys.py", '    "point_id": ', '    "unused": ')
        findings = lint_paths([scratch_tree / "simulation/scheduler.py"])
        assert [f.rule for f in findings] == ["KEY001"]
        assert "'point_id' of memory_point" in findings[0].message

    def test_classifying_the_keyword_key_neutral_clears_it(self, scratch_tree):
        inject_fake_kwarg(scratch_tree)
        edit(
            scratch_tree / "store/keys.py",
            '    "checkpoint": ',
            '    "fake_knob": "test-only knob; never touches the numbers",\n'
            '    "checkpoint": ',
        )
        assert lint_paths([scratch_tree / "simulation/scheduler.py"]) == []

    def test_resolving_the_keyword_into_the_store_key_clears_it(self, scratch_tree):
        inject_fake_kwarg(scratch_tree)
        # The other legal classification: the key-resolution function folds
        # the knob into the point config.
        edit(
            scratch_tree / "experiments/fig14.py",
            '        "kind": "memory",\n',
            '        "kind": "memory",\n        "fake_knob": 0.5,\n',
        )
        assert lint_paths([scratch_tree / "simulation/scheduler.py"]) == []

    def test_resolver_docstring_mentions_do_not_classify(self, scratch_tree):
        # Writing the keyword's name into prose is not resolving it: only
        # parameters, dict keys, and subscript assignments count.
        inject_fake_kwarg(scratch_tree)
        edit(
            scratch_tree / "experiments/fig14.py",
            "The fully resolved, stream-determining config of one fig14 point.",
            "The fully resolved fake_knob config of one fig14 point.",
        )
        findings = lint_paths([scratch_tree / "simulation/scheduler.py"])
        assert [f.rule for f in findings] == ["KEY001"]

    def test_pragma_can_suppress_a_cross_file_finding(self, scratch_tree):
        inject_fake_kwarg(scratch_tree)
        edit(
            scratch_tree / "simulation/scheduler.py",
            FAKE_KWARG,
            f"{FAKE_KWARG}  # repro: allow[KEY001]",
        )
        assert lint_paths([scratch_tree / "simulation/scheduler.py"]) == []

    def test_missing_resolver_is_an_explicit_finding(self, scratch_tree):
        (scratch_tree / "experiments/fig14.py").unlink()
        findings = lint_paths([scratch_tree / "simulation/scheduler.py"])
        assert [f.rule for f in findings] == ["KEY001"]
        assert "_memory_point_config" in findings[0].message
        assert "cannot be verified" in findings[0].message

    def test_stale_exclusion_entry_fails_lint(self, scratch_tree):
        # An excluded keyword no runner accepts any more (a deleted knob)
        # is reported at its KEY_EXCLUDED entry once both runners are linted.
        keys = scratch_tree / "store/keys.py"
        edit(
            keys,
            '    "checkpoint": ',
            '    "retired_knob": "a knob both runners have since dropped",\n'
            '    "checkpoint": ',
        )
        runners = [
            scratch_tree / "simulation/scheduler.py",
            scratch_tree / "simulation/coverage.py",
        ]
        findings = lint_paths(runners)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("KEY001", keys.as_posix(), line_of(keys, "retired_knob"))
        ]
        assert "'retired_knob'" in findings[0].message
        assert "stale" in findings[0].message
        # With only one runner linted the other's signature is unknown, so
        # staleness cannot be judged.
        assert lint_paths(runners[:1]) == []

    def test_coverage_contract_is_checked_too(self, scratch_tree):
        runner = scratch_tree / "simulation/coverage.py"
        edit(
            runner,
            "    checkpoint: object | None = None,\n) -> CoverageResult:",
            "    checkpoint: object | None = None,\n"
            f"{FAKE_KWARG}\n"
            ") -> CoverageResult:",
        )
        findings = lint_paths([runner])
        assert [f.rule for f in findings] == ["KEY001"]
        assert "simulate_clique_coverage" in findings[0].message

