#!/usr/bin/env python3
"""Scenario: compare decoder accuracy (the Fig. 14 workload, laptop-sized).

Runs memory experiments for the MWPM baseline and the Clique+MWPM hierarchy
across a small grid of physical error rates, printing logical error rates
with confidence intervals and the fraction of rounds the hierarchy kept
on-chip.

Run with:  python examples/decoder_accuracy_study.py

``REPRO_EXAMPLE_TRIALS`` shrinks the per-point trial budget (the test
suite's smoke lane runs every example this way).
"""

from __future__ import annotations

import os

from repro import (
    DecoderCascade,
    MWPMDecoder,
    PhenomenologicalNoise,
    RotatedSurfaceCode,
    run_memory_experiment,
)

DISTANCES = (3, 5)
ERROR_RATES = (5e-3, 1e-2, 2e-2)
TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "800"))

DECODERS = {
    "MWPM (baseline)": lambda code, stype: MWPMDecoder(code, stype),
    "Clique + MWPM": lambda code, stype: DecoderCascade(code, stype, tiers="clique,mwpm"),
}


def main() -> None:
    print(f"{TRIALS} memory-experiment trials per point "
          f"(the paper uses ~1e9 cycles; shapes match, error bars are wider)\n")
    for distance in DISTANCES:
        code = RotatedSurfaceCode(distance)
        print(f"=== code distance d={distance} ===")
        header = f"{'decoder':>16}  {'p':>7}  {'logical error rate':>20}  {'on-chip rounds':>14}"
        print(header)
        print("-" * len(header))
        for error_rate in ERROR_RATES:
            noise = PhenomenologicalNoise(error_rate)
            for name, factory in DECODERS.items():
                result = run_memory_experiment(
                    code, noise, factory, trials=TRIALS, rng=hash((distance, error_rate)) % 2**31
                )
                low, high = result.confidence_interval
                onchip = (
                    f"{result.onchip_round_fraction:13.1%}"
                    if result.total_rounds
                    else "            --"
                )
                print(
                    f"{name:>16}  {error_rate:7.3f}  "
                    f"{result.logical_error_rate:8.4f} [{low:.4f}, {high:.4f}]  {onchip}"
                )
            print()
        print()


if __name__ == "__main__":
    main()
