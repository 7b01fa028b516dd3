"""Run every workload on several seeds and summarise the spread of each metric.

    python3 perfbench/trajectory.py --runs 10 --record perfbench/trajectory.jsonl

For each workload it runs ``perfbench/run.py --trace 0`` once per seed (1 to
``--runs``), then one ``--trace 1`` run on seed 1, each for ``run_seconds``
from ``BENCHMARK.json``, and prints a Markdown summary: per (metric, workload)
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile spread as a share of the median, next to the metric's bound;
then the per-layer table of the traced run.  ``--record`` appends the same
numbers, with the hardware/software fingerprint, as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    start = time.monotonic()
    done = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(done.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: the correctness gate failed")
    return result, time.monotonic() - start


def main() -> None:
    sys.path.insert(0, str(ROOT))
    from perfbench.harness import fingerprint, pin_threads
    from perfbench.params import WORKLOAD_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()
    pin_threads()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"fingerprint": fingerprint(), "seconds": seconds, "runs": args.runs, "workloads": {}}
    lines = [
        "| workload | metric | unit | median | q1 | q3 | spread | bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    layer_rows: dict[str, dict] = {}
    for workload in WORKLOAD_NAMES:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(1, args.runs + 1):
            result, wall = _run(workload, seed, seconds, 0)
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s wall", file=sys.stderr, flush=True)
        summary = {}
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
            spread = (q3 - q1) / q2 if q2 else 0.0
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "values": series}
            lines.append(
                f"| {workload} | {name} | {units[name]} | {q2:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {spread:.3f} | {bounds[name]} |"
            )
        traced, _ = _run(workload, 1, seconds, 1)
        layer_rows[workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": layer_rows[workload],
            "run_wall_s": walls,
        }
    print("\n".join(lines))
    print()
    print("| layer metric | unit | " + " | ".join(layer_rows) + " |")
    print("|---|---|" + "---|" * len(layer_rows))
    for name in layer_rows[WORKLOAD_NAMES[0]]:
        cells = " | ".join(f"{layer_rows[w][name]:.4g}" for w in layer_rows)
        print(f"| {name} | {units[name]} | {cells} |")
    if args.record:
        with args.record.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
