"""Fast batched per-cycle signature sampling (the Fig. 4 workload).

The signature-distribution and coverage experiments only need the *per-cycle*
view: which ancillas light up in a single decode cycle given that previous
cycles' errors have already been corrected.  That makes the sampling fully
vectorisable: a batch of cycles is a binary matrix of fresh data errors, one
sparse matrix multiply away from the batch of signatures.
"""

from __future__ import annotations

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import ConfigurationError
from repro.noise.models import NoiseModel
from repro.noise.rng import make_rng
from repro.simulation.results import SignatureDistribution
from repro.types import StabilizerType


def sample_cycle_signatures(
    code: RotatedSurfaceCode,
    stype: StabilizerType,
    noise: NoiseModel,
    num_cycles: int,
    rng: np.random.Generator | int | None = None,
    return_touch_counts: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """Sample a batch of per-cycle signatures for one stabilizer type.

    Returns ``(signatures, measurement_flips)`` where ``signatures`` has shape
    ``(num_cycles, num_ancillas)`` and already includes the measurement flips,
    and additionally the integer ``touch_counts`` matrix (how many error
    events touch each ancilla) when ``return_touch_counts`` is True — the
    ground-truth ingredient of the Fig. 4 classification.
    """
    if num_cycles <= 0:
        raise ConfigurationError(f"num_cycles must be positive, got {num_cycles}")
    generator = make_rng(rng)
    parity_check = code.parity_check(stype).astype(np.int64)

    data_errors = noise.sample_data_matrix(code, num_cycles, generator).astype(np.int64)
    measurement_flips = noise.sample_measurement_matrix(
        code, stype, num_cycles, generator
    ).astype(np.int64)

    data_touches = data_errors @ parity_check.T
    signatures = ((data_touches + measurement_flips) % 2).astype(np.uint8)
    if return_touch_counts:
        touch_counts = data_touches + measurement_flips
        return signatures, measurement_flips.astype(np.uint8), touch_counts
    return signatures, measurement_flips.astype(np.uint8)


def classify_cycles(
    signatures: np.ndarray, touch_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised Fig. 4 classification of a batch of cycles.

    Returns three boolean arrays ``(all_zeros, local_ones, complex_)`` over the
    cycle axis.  A cycle is *complex* when any ancilla is touched by two or
    more error events (a chain); *all-zeros* when no ancilla lights up; and
    *local-1s* otherwise.
    """
    if signatures.shape != touch_counts.shape:
        raise ConfigurationError("signatures and touch_counts must have the same shape")
    any_signature = signatures.any(axis=-1)
    has_chain = (touch_counts >= 2).any(axis=-1)
    all_zeros = ~any_signature
    complex_ = any_signature & has_chain
    local_ones = any_signature & ~has_chain
    return all_zeros, local_ones, complex_


def simulate_signature_distribution(
    code: RotatedSurfaceCode,
    noise: NoiseModel,
    num_cycles: int,
    stype: StabilizerType = StabilizerType.X,
    rng: np.random.Generator | int | None = None,
    batch_size: int = 100_000,
) -> SignatureDistribution:
    """Monte-Carlo estimate of the Fig. 4 signature-class distribution.

    The distribution is estimated for a single error species (X and Z planes
    are statistically identical under the paper's symmetric noise model).
    A non-positive ``num_cycles`` or ``batch_size`` is a
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if num_cycles <= 0:
        raise ConfigurationError(f"num_cycles must be positive, got {num_cycles}")
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    generator = make_rng(rng)
    remaining = num_cycles
    all_zeros = local_ones = complex_ = 0
    while remaining > 0:
        batch = min(batch_size, remaining)
        signatures, _flips, touches = sample_cycle_signatures(
            code, stype, noise, batch, generator, return_touch_counts=True
        )
        zero_mask, local_mask, complex_mask = classify_cycles(signatures, touches)
        all_zeros += int(zero_mask.sum())
        local_ones += int(local_mask.sum())
        complex_ += int(complex_mask.sum())
        remaining -= batch
    return SignatureDistribution(
        physical_error_rate=noise.data_error_rate,
        code_distance=code.distance,
        cycles=num_cycles,
        all_zeros=all_zeros,
        local_ones=local_ones,
        complex_=complex_,
    )


__all__ = [
    "sample_cycle_signatures",
    "classify_cycles",
    "simulate_signature_distribution",
]
