"""Tests for the command-line front-end."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _parse_param, _parse_scalar, build_parser, main
from repro.experiments.registry import available_experiments


class TestParamParsing:
    def test_int_value(self):
        assert _parse_param("cycles=500") == ("cycles", 500)

    def test_float_value(self):
        assert _parse_param("rate=0.01") == ("rate", 0.01)

    def test_bool_value(self):
        assert _parse_param("flag=true") == ("flag", True)
        assert _parse_param("flag=False") == ("flag", False)

    def test_string_value(self):
        assert _parse_param("name=fig11") == ("name", "fig11")

    def test_comma_separated_values_become_tuples(self):
        assert _parse_param("distances=3,5,7") == ("distances", (3, 5, 7))
        assert _parse_param("error_rates=1e-3,1e-2") == ("error_rates", (0.001, 0.01))

    def test_trailing_comma_forces_one_element_tuple(self):
        assert _parse_param("distances=3,") == ("distances", (3,))

    def test_missing_equals_raises(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_param("cycles")

    def test_empty_value_raises(self):
        # `trials=` used to parse as the empty string and reach the runner.
        with pytest.raises(argparse.ArgumentTypeError, match="empty value"):
            _parse_param("trials=")

    def test_empty_tuple_element_raises(self):
        # `distances=3,,5` used to silently drop the hole and parse as (3, 5).
        with pytest.raises(argparse.ArgumentTypeError, match="empty element"):
            _parse_param("distances=3,,5")

    def test_leading_empty_tuple_element_raises(self):
        with pytest.raises(argparse.ArgumentTypeError, match="empty element"):
            _parse_param("distances=,3")

    def test_lone_comma_raises(self):
        with pytest.raises(argparse.ArgumentTypeError, match="empty element"):
            _parse_param("distances=,")

    def test_underscore_int_literal_raises(self):
        # `trials=1_0` used to parse as 10 via Python's digit separators.
        with pytest.raises(argparse.ArgumentTypeError, match="digit separators"):
            _parse_param("trials=1_0")

    def test_underscore_float_literal_raises(self):
        with pytest.raises(argparse.ArgumentTypeError, match="digit separators"):
            _parse_param("rate=1_000.5")

    def test_underscore_in_tuple_element_raises(self):
        with pytest.raises(argparse.ArgumentTypeError, match="digit separators"):
            _parse_param("distances=3,1_1")

    def test_underscore_strings_still_pass_through(self):
        assert _parse_param("fallback=union_find") == ("fallback", "union_find")
        assert _parse_scalar("union_find") == "union_find"

    @pytest.mark.parametrize("raw", ["trials=", "distances=3,,5"])
    def test_malformed_param_exits_nonzero_via_main(self, raw, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig14", "--param", raw])
        assert excinfo.value.code not in (0, None)
        assert "error" in capsys.readouterr().err


class TestCommands:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out.split()
        assert set(output) == set(available_experiments())

    def test_run_prints_table(self, capsys):
        exit_code = main(["run", "table1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "XOR2" in out

    def test_run_with_params(self, capsys):
        exit_code = main(["run", "fig15", "--param", "distances=3"])
        # A single int is not iterable for the runner, so fall back to a tuple
        # param form instead; this asserts clean error handling, not a crash.
        assert exit_code in (0, 1)

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        exit_code = main(["run", "fig99"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_fig04_nonpositive_cycles_fail_cleanly(self, cycles, capsys):
        assert main(["run", "fig04", "--param", f"cycles={cycles}"]) == 1
        captured = capsys.readouterr()
        assert "num_cycles must be positive" in captured.err
        assert captured.out == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_subcommand_may_be_omitted(self, capsys):
        assert main(["table1"]) == 0
        shorthand = capsys.readouterr().out
        assert main(["run", "table1"]) == 0
        assert capsys.readouterr().out == shorthand

    def test_unknown_experiment_via_shorthand_fails_cleanly(self, capsys):
        assert main(["fig99"]) == 1
        assert "error" in capsys.readouterr().err


class TestShardedCoverageCli:
    FIG11_ARGS = [
        "fig11",
        "--param",
        "cycles=2000",
        "--param",
        "distances=3,5",
        "--param",
        "error_rates=1e-2,",
    ]

    def _run(self, extra, capsys):
        assert main(self.FIG11_ARGS + extra) == 0
        return capsys.readouterr().out

    def test_fig11_workers_produce_byte_identical_rows(self, capsys):
        # The PR's acceptance criterion, through the real CLI: at a fixed
        # seed the sharded coverage sweep is byte-identical across workers.
        single = self._run(["--workers", "1"], capsys)
        pooled = self._run(["--workers", "4"], capsys)
        assert single == pooled
        assert "coverage_pct" in single

    def test_fig11_chunk_cycles_flag_is_forwarded(self, capsys):
        # Different chunking = different per-shard streams: still valid, but
        # legitimately different counts — the flag must reach the runner.
        coarse = self._run(["--workers", "1"], capsys)
        fine = self._run(["--workers", "1", "--chunk-cycles", "500"], capsys)
        assert coarse != fine

    def test_fig11_adaptive_width_flag_caps_cycles(self, capsys):
        out = self._run(
            ["--workers", "1", "--chunk-cycles", "500", "--target-ci-width", "0.05"],
            capsys,
        )
        # d=3 at p=1e-2 converges far below the 2000-cycle budget, so the
        # cycles column must report fewer than the budget for every row —
        # which also pins that the flag actually reaches the runner.
        data_rows = [
            line.split()
            for line in out.splitlines()
            if line and line[0].isdigit()
        ]
        assert data_rows
        cycles_consumed = [int(fields[2]) for fields in data_rows]
        assert all(cycles < 2000 for cycles in cycles_consumed)


class TestStoreCli:
    FIG11_ARGS = [
        "fig11",
        "--param",
        "cycles=400",
        "--param",
        "distances=3,",
        "--param",
        "error_rates=1e-2,",
    ]

    def _run(self, extra, capsys):
        assert main(self.FIG11_ARGS + extra) == 0
        return capsys.readouterr().out

    def test_warm_store_rerun_is_byte_identical(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "store")]
        cold = self._run(store, capsys)
        warm = self._run(store, capsys)
        assert warm == cold
        assert (tmp_path / "store" / "results.jsonl").exists()

    def test_explicit_resume_flag_accepted(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "store")]
        cold = self._run(store, capsys)
        assert self._run(store + ["--resume"], capsys) == cold

    def test_force_flag_recomputes_and_matches(self, tmp_path, capsys):
        # Deterministic seeds: forcing recomputation must reproduce the
        # stored numbers exactly (and exit cleanly while overwriting).
        store = ["--store", str(tmp_path / "store")]
        cold = self._run(store, capsys)
        assert self._run(store + ["--force"], capsys) == cold

    def test_force_without_store_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.FIG11_ARGS + ["--force"])
        assert excinfo.value.code not in (0, None)
        assert "--store" in capsys.readouterr().err

    def test_resume_and_force_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(self.FIG11_ARGS + ["--store", "s", "--resume", "--force"])

    def test_store_path_that_is_a_file_fails_cleanly(self, tmp_path, capsys):
        # A --store path naming an existing file must produce the standard
        # 'error:' message and exit 1, not a raw FileExistsError traceback.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert main(self.FIG11_ARGS + ["--store", str(blocker)]) == 1
        assert "error" in capsys.readouterr().err

    def test_store_with_non_sweep_experiment_fails_cleanly(self, tmp_path, capsys):
        # table1 takes no store kwarg: the CLI reports the TypeError as a
        # normal parameter error instead of crashing.
        assert main(["run", "table1", "--store", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err


class TestCascadeTiersCli:
    FIG14_ARGS = [
        "fig14",
        "--param",
        "trials=40",
        "--param",
        "distances=3,",
        "--param",
        "error_rates=2e-2,",
    ]

    def test_fig14_runs_the_clique_mwpm_hierarchy(self, capsys):
        assert main(self.FIG14_ARGS) == 0
        out = capsys.readouterr().out
        assert "MWPM baseline vs Clique+MWPM" in out

    def test_tiers_param_is_a_clean_error(self, capsys):
        # fig14 has one cascade, so it takes no tier spec at all.
        assert main(self.FIG14_ARGS + ["--param", "tiers=clique,mwpm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "tiers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--fallback", "mwpm"],
            ["--no-packed"],
            ["--escalation-cluster-size", "4"],
            ["--engine", "batch"],
            ["--tiers", "clique,mwpm"],
        ],
        ids=["fallback", "no-packed", "escalation-cluster-size", "engine", "tiers"],
    )
    def test_retired_flags_are_argparse_errors(self, flags, capsys):
        # The cascade is always Clique+MWPM (no fallback or tier choice), the
        # packed kernels are the only batch path, cascades have two tiers
        # (no escalation knob), and every fig14 point runs on the sweep
        # scheduler (no engine choice): the retired flags no longer parse.
        with pytest.raises(SystemExit) as excinfo:
            main(self.FIG14_ARGS + flags)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStoreCompactCli:
    FIG11_ARGS = [
        "fig11",
        "--param",
        "cycles=400",
        "--param",
        "distances=3,",
        "--param",
        "error_rates=1e-2,",
    ]

    def test_compact_reports_summary_and_preserves_results(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(self.FIG11_ARGS + ["--store", store_dir]) == 0
        cold = capsys.readouterr().out
        # A --force re-run appends duplicate lines for every point.
        assert main(self.FIG11_ARGS + ["--store", store_dir, "--force"]) == 0
        capsys.readouterr()
        assert main(["store", "compact", store_dir]) == 0
        out = capsys.readouterr().out
        assert "kept 1 records" in out
        assert "dropped 1 stale lines" in out
        # The compacted store still serves the sweep byte-identically.
        assert main(self.FIG11_ARGS + ["--store", store_dir]) == 0
        assert capsys.readouterr().out == cold

    def test_compact_on_fresh_directory(self, tmp_path, capsys):
        assert main(["store", "compact", str(tmp_path / "empty")]) == 0
        assert "kept 0 records" in capsys.readouterr().out

    def test_compact_on_file_path_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert main(["store", "compact", str(blocker)]) == 1
        assert "error" in capsys.readouterr().err

    def test_store_without_subcommand_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["store"])


class TestLintCli:
    @staticmethod
    def _violation_file(tmp_path):
        target = tmp_path / "snippet.py"
        target.write_text(
            "import numpy as np\nnp.random.seed(3)\n", encoding="utf-8"
        )
        return target

    def test_clean_path_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import numpy as np\n", encoding="utf-8")
        assert main(["lint", str(clean)]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one_with_coordinates(self, tmp_path, capsys):
        target = self._violation_file(tmp_path)
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:2:1: DET001" in out
        assert "1 finding(s)" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        import json

        target = self._violation_file(tmp_path)
        assert main(["lint", "--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert [(f["rule"], f["line"]) for f in payload["findings"]] == [
            ("DET001", 2)
        ]

    def test_select_and_ignore_narrow_the_rule_set(self, tmp_path, capsys):
        target = self._violation_file(tmp_path)
        assert main(["lint", "--select", "DTY001", str(target)]) == 0
        capsys.readouterr()
        assert main(["lint", "--ignore", "DET001", str(target)]) == 0

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        target = self._violation_file(tmp_path)
        assert main(["lint", "--select", "NOPE999", str(target)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_nonexistent_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing.py")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_rules_names_every_contract(self, capsys):
        from repro.analysis.core import all_rules

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out

    def test_default_paths_lint_the_installed_package(self, capsys):
        # `repro-qec lint` with no paths lints src/repro itself — the same
        # invariant the tier-1 self-lint test pins, via the CLI surface.
        assert main(["lint"]) == 0
        assert "clean: no findings" in capsys.readouterr().out
