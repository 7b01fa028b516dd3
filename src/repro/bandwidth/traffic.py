"""Raw off-chip syndrome traffic accounting.

The reference point for every bandwidth-reduction number in the paper is the
naive design that ships the full error signature of every logical qubit
off-chip every decode cycle: ``d*d - 1`` syndrome bits per logical qubit per
round (Section 2.3 notes the additional factor of ``d`` measurement rounds
per decode for full fault tolerance).
"""

from __future__ import annotations

from repro.clique.measurement_filter import check_measurement_rounds
from repro.codes.rotated_surface import RotatedSurfaceCode, check_distance, get_code
from repro.exceptions import InvalidProbabilityError
from repro.types import StabilizerType


def syndrome_bits_per_cycle(distance: int, measurement_rounds: int = 1) -> int:
    """Uncompressed syndrome bits per logical qubit per decode cycle."""
    check_distance(distance)
    check_measurement_rounds(measurement_rounds)
    return (distance * distance - 1) * measurement_rounds


def ancilla_flip_probability(weight: int, data_error_rate: float, measurement_error_rate: float) -> float:
    """Probability that a single ancilla's syndrome bit is non-zero in one cycle.

    The bit flips when an odd number of its ``weight`` adjacent data qubits
    erred XOR the measurement itself flipped.  With independent errors the
    odd-parity probability of ``n`` events of probability ``p`` is
    ``(1 - (1 - 2p)^n) / 2``.
    """
    for name, value in (
        ("data_error_rate", data_error_rate),
        ("measurement_error_rate", measurement_error_rate),
    ):
        if not 0.0 <= value <= 1.0:
            raise InvalidProbabilityError(name, value)
    odd_data = 0.5 * (1.0 - (1.0 - 2.0 * data_error_rate) ** weight)
    # XOR with the measurement flip.
    return odd_data * (1.0 - measurement_error_rate) + (1.0 - odd_data) * measurement_error_rate


def expected_nonzero_syndrome_bits(
    distance: int,
    data_error_rate: float,
    measurement_error_rate: float | None = None,
    code: RotatedSurfaceCode | None = None,
) -> float:
    """Expected number of set bits in one cycle's full (both-type) signature."""
    if measurement_error_rate is None:
        measurement_error_rate = data_error_rate
    code = code or get_code(distance)
    total = 0.0
    for stype in StabilizerType:
        for ancilla in code.ancillas(stype):
            total += ancilla_flip_probability(
                ancilla.weight, data_error_rate, measurement_error_rate
            )
    return total


__all__ = [
    "syndrome_bits_per_cycle",
    "ancilla_flip_probability",
    "expected_nonzero_syndrome_bits",
]
