#!/usr/bin/env python3
"""Quickstart: decode one logical qubit with the BTWC hierarchy.

Builds a distance-5 rotated surface code, injects phenomenological noise,
and decodes a short memory experiment with the two-tier Clique + MWPM
decoder cascade, printing where each measurement round was resolved and
whether the logical qubit survived.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DecoderCascade,
    PhenomenologicalNoise,
    RotatedSurfaceCode,
    StabilizerType,
)
from repro.noise.events import vector_to_errors
from repro.syndrome.history import SyndromeHistory


def main() -> None:
    distance = 5
    physical_error_rate = 1e-2
    rounds = distance

    code = RotatedSurfaceCode(distance)
    noise = PhenomenologicalNoise(physical_error_rate)
    decoder = DecoderCascade(code, StabilizerType.X, tiers="clique,mwpm")
    rng = np.random.default_rng(7)

    print(f"Rotated surface code d={distance}: {code.num_data_qubits} data qubits, "
          f"{code.num_ancillas} ancillas")
    print(f"Phenomenological noise p={physical_error_rate}\n")

    # --- run one memory experiment by hand so every step is visible --------
    parity_check = code.parity_check(StabilizerType.X)
    history = SyndromeHistory(code.num_ancillas_of_type(StabilizerType.X))
    accumulated = np.zeros(code.num_data_qubits, dtype=np.uint8)

    for round_index in range(rounds):
        accumulated ^= noise.sample_data_vector(code, rng)
        true_syndrome = (parity_check @ accumulated) % 2
        flips = noise.sample_measurement_vector(code, StabilizerType.X, rng)
        history.record(true_syndrome ^ flips)
        print(f"round {round_index}: {int(true_syndrome.sum())} ancillas flipped, "
              f"{int(flips.sum())} measurement faults")
    history.record((parity_check @ accumulated) % 2)  # final perfect readout

    result = decoder.decode_history(history.detection_matrix())
    print("\nPer-round decode location:",
          [location.value for location in result.round_locations])
    print(f"On-chip corrections : {sorted(result.onchip_correction)}")
    print(f"Off-chip corrections: {sorted(result.offchip_correction)}")

    residual = vector_to_errors(accumulated, code.data_qubits) ^ result.correction
    logical_failure = code.is_logical_error(residual, StabilizerType.X)
    print(f"\nInjected error weight  : {int(accumulated.sum())}")
    print(f"Correction weight      : {len(result.correction)}")
    print(f"Logical qubit survived : {not logical_failure}")
    print(f"Rounds kept on-chip    : {result.onchip_fraction:.0%}")


if __name__ == "__main__":
    main()
