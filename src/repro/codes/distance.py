"""Code-distance sizing: physical error rate + logical target -> distance.

The paper's Fig. 4 labels each evaluated configuration with a physical error
rate, a target logical error rate and the code distance needed to reach it
(e.g. ``5e-3 / 1e-12`` needs ``d = 81`` while ``5e-4 / 1e-5`` needs only
``d = 5``).  The mapping follows the standard surface-code scaling law

    P_L(p, d) ~= A * (p / p_th) ** ((d + 1) / 2)

(see Fowler et al., "Surface codes: Towards practical large-scale quantum
computation").  We calibrate ``A`` and ``p_th`` by a least-squares fit in log
space to the six operating points the paper reports, so that
:func:`required_code_distance` reproduces the paper's distances and the rest
of the library (signature-distribution and bandwidth experiments) can be
parameterised the same way the paper is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.codes.rotated_surface import check_distance
from repro.exceptions import ConfigurationError, InvalidProbabilityError


@dataclass(frozen=True)
class OperatingPoint:
    """One (physical error rate, target logical rate, code distance) triple."""

    physical_error_rate: float
    logical_error_rate: float
    code_distance: int

    def label(self) -> str:
        """Human-readable label in the style of the paper's Fig. 4 x-axis."""
        return (
            f"{self.physical_error_rate:.0E}/{self.logical_error_rate:.0E}"
            f" (d={self.code_distance})"
        )


#: The six operating points evaluated in Fig. 4 of the paper.
PAPER_OPERATING_POINTS: tuple[OperatingPoint, ...] = (
    OperatingPoint(5e-3, 1e-5, 25),
    OperatingPoint(5e-3, 1e-12, 81),
    OperatingPoint(1e-3, 1e-5, 7),
    OperatingPoint(1e-3, 1e-12, 21),
    OperatingPoint(5e-4, 1e-5, 5),
    OperatingPoint(5e-4, 1e-12, 15),
)


class LogicalRateModel:
    """Scaling-law model ``P_L = A * (p / p_th) ** ((d + 1) / 2)``.

    Args:
        prefactor: the constant ``A``.
        threshold: the per-step suppression threshold ``p_th``.
    """

    def __init__(self, prefactor: float, threshold: float) -> None:
        if prefactor <= 0:
            raise ConfigurationError(f"prefactor must be positive, got {prefactor}")
        if not 0 < threshold < 1:
            raise InvalidProbabilityError("threshold", threshold)
        self.prefactor = float(prefactor)
        self.threshold = float(threshold)

    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, points: tuple[OperatingPoint, ...] = PAPER_OPERATING_POINTS) -> "LogicalRateModel":
        """Least-squares calibration of ``A`` and ``p_th`` from operating points.

        Taking logs, ``log10 P_L = log10 A + k * (log10 p - log10 p_th)`` with
        ``k = (d + 1) / 2``, so ``log10 P_L - k * log10 p`` is linear in ``k``
        with slope ``-log10 p_th`` and intercept ``log10 A``.
        """
        if len(points) < 2:
            raise ConfigurationError("need at least two operating points to fit")
        suppression_steps = np.array(
            [(point.code_distance + 1) / 2 for point in points], dtype=float
        )
        residual_log = np.array(
            [
                math.log10(point.logical_error_rate)
                - steps * math.log10(point.physical_error_rate)
                for point, steps in zip(points, suppression_steps)
            ],
            dtype=float,
        )
        slope, intercept = np.polyfit(suppression_steps, residual_log, deg=1)
        # The regression slope is -log10(p_th): larger distances suppress the
        # logical rate by one factor of (p / p_th) per two added rows.
        return cls(prefactor=10.0**intercept, threshold=10.0 ** (-slope))

    # ------------------------------------------------------------------
    def logical_error_rate(self, physical_error_rate: float, distance: int) -> float:
        """Estimated logical error rate for a given physical rate and distance."""
        if not 0 < physical_error_rate < 1:
            raise InvalidProbabilityError("physical_error_rate", physical_error_rate)
        check_distance(distance)
        steps = (distance + 1) / 2
        return self.prefactor * (physical_error_rate / self.threshold) ** steps

    def required_distance(
        self,
        physical_error_rate: float,
        target_logical_error_rate: float,
        max_distance: int = 201,
    ) -> int:
        """Smallest odd distance whose estimated logical rate meets the target."""
        if not 0 < target_logical_error_rate < 1:
            raise InvalidProbabilityError(
                "target_logical_error_rate", target_logical_error_rate
            )
        if physical_error_rate >= self.threshold:
            raise ConfigurationError(
                "physical error rate is at or above threshold "
                f"({physical_error_rate} >= {self.threshold}); no distance suffices"
            )
        for distance in range(3, max_distance + 1, 2):
            if self.logical_error_rate(physical_error_rate, distance) <= target_logical_error_rate:
                return distance
        raise ConfigurationError(
            f"no distance <= {max_distance} reaches {target_logical_error_rate} "
            f"at physical rate {physical_error_rate}"
        )


@lru_cache(maxsize=1)
def calibrated_model() -> LogicalRateModel:
    """The model calibrated against the paper's Fig. 4 operating points."""
    return LogicalRateModel.fit(PAPER_OPERATING_POINTS)


def logical_error_rate_estimate(physical_error_rate: float, distance: int) -> float:
    """Module-level convenience wrapper around the calibrated model."""
    return calibrated_model().logical_error_rate(physical_error_rate, distance)


def required_code_distance(
    physical_error_rate: float, target_logical_error_rate: float
) -> int:
    """Distance needed for a target logical rate, per the calibrated scaling law."""
    return calibrated_model().required_distance(
        physical_error_rate, target_logical_error_rate
    )


__all__ = [
    "OperatingPoint",
    "PAPER_OPERATING_POINTS",
    "LogicalRateModel",
    "calibrated_model",
    "logical_error_rate_estimate",
    "required_code_distance",
]
