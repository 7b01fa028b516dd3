"""int64 reference formulation of the Clique coverage kernel: a test oracle.

The production kernel (:func:`repro.simulation.coverage.sample_complex_words`)
works on uint64 bitplanes.  This module keeps the formulation it replaced:
widen the sampled data errors and persistent measurement flips to int64,
take the syndrome as a parity-check matmul mod 2, and run the Clique
decision row by row through :meth:`CliqueDecoder.is_trivial_batch`.  Both
consume the same two RNG draws per batch in the same order, so for any seed
their counts must be equal, not merely close.
"""

from __future__ import annotations

import numpy as np

from repro.clique.decoder import CliqueDecoder


def oracle_signatures(
    clique: CliqueDecoder,
    noise,
    measurement_rounds: int,
    cycles: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """``(cycles, ancillas)`` uint8 signatures via the int64 matmul."""
    code, stype = clique.code, clique.stabilizer_type
    parity_check = code.parity_check(stype).astype(np.int64)
    data_errors = noise.sample_data_matrix(code, cycles, generator).astype(np.int64)
    persistent_flips = (
        generator.random((cycles, code.num_ancillas_of_type(stype)))
        < noise.measurement_error_rate**measurement_rounds
    ).astype(np.int64)
    return ((data_errors @ parity_check.T + persistent_flips) % 2).astype(np.uint8)


def oracle_count_coverage(
    clique: CliqueDecoder,
    noise,
    measurement_rounds: int,
    num_cycles: int,
    generator: np.random.Generator,
    batch_size: int,
) -> tuple[int, int]:
    """``(on-chip, all-zero)`` cycle counts, batch by batch as the kernel draws them."""
    onchip = 0
    all_zero = 0
    remaining = num_cycles
    while remaining > 0:
        batch = min(batch_size, remaining)
        signatures = oracle_signatures(
            clique, noise, measurement_rounds, batch, generator
        )
        onchip += int(clique.is_trivial_batch(signatures).sum())
        all_zero += int((~signatures.any(axis=-1)).sum())
        remaining -= batch
    return onchip, all_zero

