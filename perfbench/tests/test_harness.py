"""Tests for the benchmark harness: tail rule, self time, metric names,
the statistical gate, lint."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.harness import (
    Recorder,
    check_metric_name,
    covered_length,
    highest_supported_percentile,
    percentile,
    poisson_upper_limit,
    samples_beyond,
    two_proportion_z,
)

BENCH_DIR = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_samples_beyond_counts_values_above_the_percentile():
    for count in range(1, 260):
        values = list(range(count))
        for q in (50.0, 75.0, 90.0, 95.0, 99.0):
            cut = percentile(values, q)
            assert samples_beyond(count, q) == sum(1 for v in values if v > cut), (count, q)


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (10, None),
        (19, None),
        (20, 50.0),
        (40, 75.0),
        (99, 90.0),
        (100, 90.0),
        (181, 90.0),
        (199, 95.0),
        (201, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_supported_percentile(count) == expected


def test_percentile_interpolates_like_numpy():
    assert percentile([4, 1, 3, 2], 50.0) == 2.5
    assert percentile([1, 2, 3, 4, 5], 90.0) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5)], 0, 10) == 4
    assert covered_length([(8, 12)], 0, 10) == 2
    assert covered_length([(-3, -1), (11, 12)], 0, 10) == 0
    assert covered_length([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_is_span_minus_child_coverage():
    recorder = Recorder()
    parent = recorder.add("call", 0.0, 10.0, parent=None)
    recorder.add("worker", 1.0, 3.0, parent=parent)
    recorder.add("worker", 2.0, 5.0, parent=parent)  # overlaps: parallel worker
    child = recorder.add("stage", 6.0, 9.0, parent=parent)
    recorder.add("inner", 7.0, 8.0, parent=child)
    own = recorder.self_times()
    assert own["call"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own["worker"] == pytest.approx(5.0)
    assert own["stage"] == pytest.approx(2.0)
    assert own["inner"] == pytest.approx(1.0)


def test_nested_spans_partition_the_outer_span():
    recorder = Recorder()
    with recorder.span("outer") as outer:
        with recorder.span("a"):
            sum(range(10_000))
        with recorder.span("b"):
            sum(range(10_000))
    assert recorder.spans[outer].parent is None
    assert all(span.parent == outer for span in recorder.spans[1:])
    own = recorder.self_times()
    assert sum(own.values()) == pytest.approx(recorder.total("outer"))


@pytest.mark.parametrize(
    "name", ["samples_per_s", "noise.sample_s", "call_ms_p90", "a-b.c_d", "9x"]
)
def test_metric_names_in_charset_pass(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", ".lead", "_lead", "has space", "per/second", "ü", "x" * 65]
)
def test_metric_names_outside_charset_fail(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_declared_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_two_proportion_z():
    assert two_proportion_z(0, 100, 0, 1000) == 0.0
    assert two_proportion_z(50, 100, 500, 1000) == 0.0
    assert two_proportion_z(90, 100, 100, 1000) > 5.0


def test_benchmark_files_lint_clean():
    from repro.analysis import format_text, lint_paths

    findings = lint_paths([BENCH_DIR])
    assert findings == [], "\n" + format_text(findings)


def test_poisson_upper_limit():
    assert poisson_upper_limit(0.0, 1e-9) == 0
    assert poisson_upper_limit(1.0, 0.5) == 1
    assert poisson_upper_limit(3.0, 0.05) == 6  # P(X > 5) = 0.084, P(X > 6) = 0.034
    with pytest.raises(ValueError):
        poisson_upper_limit(-1.0, 0.05)


def test_rate_gate_bounds_an_outcome_the_reference_never_saw():
    from perfbench.workloads import _rate_gate

    def passes(hits, trials, ref_hits, ref_trials):
        return _rate_gate("g", hits, trials, ref_hits, ref_trials)[1]

    # mem-lowp: no logical failure in 400k reference trials.
    assert passes(0, 700_000, 0, 400_000)
    assert passes(5, 700_000, 0, 400_000)
    assert not passes(35, 700_000, 0, 400_000)  # a rate of 5e-5
    # Coverage with every reference cycle on-chip: the misses are bounded.
    assert passes(45_000, 45_000, 100_000, 100_000)
    assert not passes(44_950, 45_000, 100_000, 100_000)
    # Both outcomes seen: the two-sided z-test.
    assert passes(96, 40_000, 96, 40_000)
    assert not passes(400, 40_000, 96, 40_000)
