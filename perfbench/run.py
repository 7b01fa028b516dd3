"""Run one benchmark workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload mem-lowp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run times untraced calls to the workload's entry point and
reports the end-to-end metrics; with ``--trace 1`` it pairs every untraced
call with a traced one (same seed, counts must agree) and reports the
per-layer metrics.  Both modes run the correctness gate.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; every line before it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Fresh-interpreter set-ups timed per run, spread evenly over the timed
#: loop so that no single phase of the host decides ``setup_s`` (their
#: median).  Probe time is excluded from the timed region.
SETUP_PROBES = 7


def _declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Metric names and units, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Outcome:
    """Attempted/failed tallies; every failure is kept with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, label: str, fn, *args):
        """Run ``fn``; count it, and record a raised exception as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failing call is a result to report, not a crash
            self.failures.append(f"{label}: {traceback.format_exc(limit=4)}")
            return None

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def _probe_setup(name: str, env: dict) -> dict:
    """Time one fresh interpreter from start to the first call being ready."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def run_workload(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import (
        Recorder,
        check_metric_name,
        fingerprint,
        highest_supported_percentile,
        median,
        peak_rss_mb,
        percentile,
        pin_threads,
    )

    pin_threads()  # before numpy is first imported, below
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    end_to_end_units, per_layer_units = _declared_metrics()

    from perfbench.workloads import make_workload
    from repro.noise.rng import point_seed

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        workload = make_workload(args.workload, scratch)

        def timed_call(index: int):
            """One checked, timed untraced call: ``(seconds, result)``."""
            start = time.perf_counter()
            result = outcome.attempt(f"call {index}", workload.call, point_seed(args.seed, index))
            elapsed = time.perf_counter() - start
            if result is not None:
                problems = workload.check(result)
                if problems:
                    outcome.fail(f"call {index}: " + "; ".join(problems))
                else:
                    workload.tally(result)
            return elapsed, result

        timed_call(0)  # warm-up: caches, lazy imports, first pool
        if args.trace:
            outcome.attempt("traced warm-up", workload.traced_call, point_seed(args.seed, 0), Recorder())
        # Pool workers' peak, read before any set-up probe (also a child) ends.
        worker_rss = peak_rss_mb(children=True) if workload.uses_pool else 0.0
        times: list[float] = []
        samples = 0
        recorder = Recorder()
        traced_s = untraced_s = 0.0
        probes: list[dict] = []
        index = 1
        began = time.perf_counter()
        while (timed := time.perf_counter() - began) < args.seconds:
            if len(probes) < SETUP_PROBES and timed >= len(probes) * args.seconds / SETUP_PROBES:
                paused = time.perf_counter()
                probes.append(_probe_setup(args.workload, env))
                began += time.perf_counter() - paused  # probes are not timed calls
                continue
            elapsed, result = timed_call(index)
            times.append(elapsed)
            if result is not None:
                samples += workload.samples(result)
            if args.trace and result is not None:
                recorder.call_id = index
                mark = len(recorder.spans)
                counts = outcome.attempt(
                    f"traced call {index}", workload.traced_call, point_seed(args.seed, index), recorder
                )
                if counts is not None and counts != workload.counts(result):
                    outcome.fail(f"traced call {index}: counts {counts} != untraced {workload.counts(result)}")
                untraced_s += elapsed
                traced_s += sum(
                    span.duration
                    for span in recorder.spans[mark:]
                    if span.parent is None and span.name == workload.top_span
                )
            index += 1
        wall = time.perf_counter() - began
        rss = peak_rss_mb() + worker_rss
        while len(probes) < SETUP_PROBES:  # only if one call outlasted a probe slot
            probes.append(_probe_setup(args.workload, env))

        gates = outcome.attempt("gate", workload.gates, args.seed, reference[args.workload]) or []
        for gate_name, ok, detail in gates:
            outcome.attempted += 1
            if not ok:
                outcome.fail(f"gate {gate_name}: {detail}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    calls = len(times)
    failed = len(outcome.failures)
    if args.trace:
        mismatches = recorder.counters.get("coverage.replay_mismatches", 0)
        if mismatches:
            outcome.fail(f"{mismatches} replayed coverage shard(s) disagree with their shard")
            failed += 1
        layers = dict.fromkeys(per_layer_units, 0.0)
        layers.update(workload.layers(recorder, calls))
        layers["experiments.import_s"] = median([p["import_s"] for p in probes])
        layers["codes.build_s"] = median([p["build_s"] for p in probes])
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        layers["trace.unattributed_frac"] = (
            recorder.self_times().get(workload.top_span, 0.0) / traced_s
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer_units.items()}
        extra = set(layers) - set(per_layer_units)
        if extra:
            raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {sorted(extra)}")
    else:
        values = {
            "samples_per_s": samples / wall,
            "call_ms_p50": 1e3 * percentile(times, 50.0),
            "call_ms_p90": 1e3 * percentile(times, 90.0),
            "setup_s": median([p["setup_s"] for p in probes]),
            "peak_rss_mb": rss,
            "ok_call_frac": (outcome.attempted - failed) / outcome.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end_units.items()}
    for name in metrics:
        check_metric_name(name)

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# fingerprint {json.dumps(fingerprint(), sort_keys=True)}")
    tail = highest_supported_percentile(calls)
    print(
        f"# {calls} timed calls ({workload.sample_unit}: {samples}); highest percentile with "
        f">= 10 calls beyond it: {tail if tail is not None else 'none'}"
    )
    print("# setup probes: " + ", ".join(f"{p['setup_s']:.3f}s" for p in probes))
    for gate_name, ok, detail in gates:
        print(f"# gate {'ok  ' if ok else 'FAIL'} {gate_name}: {detail}")
    for reason in outcome.failures:
        print(f"# failure: {reason}")
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined table."""
    sys.path.insert(0, str(ROOT))
    from perfbench.params import WORKLOAD_NAMES

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("mem-lowp", "mem-deep", "cov-sweep", "stall-sweep", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
