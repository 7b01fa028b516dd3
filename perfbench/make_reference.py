"""Regenerate ``perfbench/reference.json``, the statistical gate's reference.

    python3 perfbench/make_reference.py

Each reference rate is measured on far more samples than one benchmark run
draws, from seeds under a root that the benchmark's own ``--seed`` values
never use.  Regenerate only when the library legitimately changes a rate
(a model change, not an optimisation), and say so in the change.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Seed root for reference draws, disjoint from benchmark run seeds.
REFERENCE_ROOT = 20_230_325

MEM_TRIALS = {"mem-lowp": 400_000, "mem-deep": 40_000}
COVERAGE_CYCLES = 100_000
STALL_COVERAGE_CYCLES = 400_000


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import params
    from perfbench.harness import pin_threads

    pin_threads()
    from repro.clique.cascade import DecoderCascade
    from repro.codes.rotated_surface import get_code
    from repro.noise.models import PhenomenologicalNoise
    from repro.noise.rng import point_seed
    from repro.simulation.coverage import simulate_clique_coverage
    from repro.simulation.memory import run_memory_experiment

    reference: dict[str, dict] = {}
    factory = functools.partial(DecoderCascade, tiers="clique,mwpm")
    for key, (name, config) in enumerate(
        (("mem-lowp", params.MEM_LOWP), ("mem-deep", params.MEM_DEEP))
    ):
        result = run_memory_experiment(
            get_code(config["distance"]),
            PhenomenologicalNoise(config["error_rate"]),
            factory,
            trials=MEM_TRIALS[name],
            rounds=config["rounds"],
            rng=point_seed(REFERENCE_ROOT, key),
        )
        reference[name] = {
            "trials": result.trials,
            "failures": result.logical_failures,
            "offchip_trials": result.tier_trials[1],
        }
        print(name, reference[name], flush=True)

    def coverage(rate: float, distance: int, cycles: int, *key: int) -> dict[str, int]:
        result = simulate_clique_coverage(
            get_code(distance),
            PhenomenologicalNoise(rate),
            cycles,
            rng=point_seed(REFERENCE_ROOT, *key),
        )
        return {"cycles": result.cycles, "onchip": result.onchip_cycles, "offchip": result.offchip_cycles}

    reference["cov-sweep"] = {
        "points": {
            f"{rate}:{distance}": coverage(rate, distance, COVERAGE_CYCLES, 2, i, j)
            for i, rate in enumerate(params.COV_SWEEP["error_rates"])
            for j, distance in enumerate(params.COV_SWEEP["distances"])
        }
    }
    print("cov-sweep", reference["cov-sweep"], flush=True)
    reference["stall-sweep"] = {
        "points": {
            f"{rate}:{distance}": coverage(rate, distance, STALL_COVERAGE_CYCLES, 3, i)
            for i, (rate, distance) in enumerate(params.STALL_SWEEP["gate_operating_points"])
        }
    }
    print("stall-sweep", reference["stall-sweep"], flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
