"""Multi-logical-qubit machine simulation (the Section 6.1 methodology).

The bandwidth-allocation evaluation of the paper simulates a machine with
1000 logical qubits over a million execution cycles and records, per cycle,
how many of them needed an off-chip decode.  :class:`LogicalMachine` does the
same directly from the Clique decision logic (rather than assuming a binomial
demand model): every cycle, every logical qubit independently samples fresh
data errors and persistent measurement faults, and the vectorised Clique
decision marks it on-chip or off-chip.

The resulting empirical per-cycle demand distribution can be fed straight
into :func:`empirical_plan`, the measured counterpart of
:func:`repro.bandwidth.allocation.provision_for_percentile`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import bitplane
from repro.bandwidth.allocation import BandwidthPlan
from repro.clique.decoder import get_clique_decoder
from repro.clique.measurement_filter import check_measurement_rounds
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import BandwidthConfigurationError, ConfigurationError
from repro.noise.models import NoiseModel
from repro.noise.rng import make_rng
from repro.simulation.coverage import sample_complex_words
from repro.types import StabilizerType


@dataclass(frozen=True)
class MachineSimulationResult:
    """Per-cycle off-chip demand trace of a multi-logical-qubit machine."""

    num_logical_qubits: int
    physical_error_rate: float
    code_distance: int
    offchip_requests_per_cycle: np.ndarray

    @property
    def cycles(self) -> int:
        return len(self.offchip_requests_per_cycle)

    @property
    def mean_requests_per_cycle(self) -> float:
        return float(self.offchip_requests_per_cycle.mean())

    @property
    def peak_requests_per_cycle(self) -> int:
        return int(self.offchip_requests_per_cycle.max(initial=0))

    @property
    def offchip_rate_per_qubit(self) -> float:
        """Empirical per-qubit, per-cycle off-chip probability (1 - coverage)."""
        return self.mean_requests_per_cycle / self.num_logical_qubits

    def demand_percentile(self, percentile: float) -> int:
        """Empirical percentile of the per-cycle demand distribution."""
        if not 0.0 < percentile < 100.0:
            raise BandwidthConfigurationError(
                f"percentile must lie strictly between 0 and 100, got {percentile}"
            )
        # The smallest demand B with P(demand <= B) >= q, the rule that
        # provision_for_percentile applies to the binomial model; a linear
        # interpolation truncated to int could land below it.
        return int(
            np.percentile(
                self.offchip_requests_per_cycle, percentile, method="inverted_cdf"
            )
        )


class LogicalMachine:
    """A machine of identical logical qubits sharing one off-chip decode link.

    Args:
        code: the surface code every logical qubit uses.
        noise: per-cycle noise model (identical across qubits, as in the paper).
        num_logical_qubits: machine size (the paper evaluates 1000).
        measurement_rounds: Clique persistence-filter window.
    """

    def __init__(
        self,
        code: RotatedSurfaceCode,
        noise: NoiseModel,
        num_logical_qubits: int = 1000,
        measurement_rounds: int = 2,
    ) -> None:
        if num_logical_qubits <= 0:
            raise ConfigurationError(
                f"num_logical_qubits must be positive, got {num_logical_qubits}"
            )
        check_measurement_rounds(measurement_rounds)
        self._code = code
        self._noise = noise
        self._num_qubits = num_logical_qubits
        self._rounds = measurement_rounds
        self._clique = get_clique_decoder(code.distance, StabilizerType.X)
        self._packed_check = bitplane.get_packed_parity_check(
            code.distance, StabilizerType.X
        )

    @property
    def num_logical_qubits(self) -> int:
        return self._num_qubits

    @property
    def code(self) -> RotatedSurfaceCode:
        return self._code

    # ------------------------------------------------------------------
    def simulate(
        self,
        cycles: int,
        rng: np.random.Generator | int | None = None,
        batch_cycles: int = 64,
    ) -> MachineSimulationResult:
        """Simulate ``cycles`` machine cycles and record the off-chip demand.

        Each (cycle, logical qubit) pair samples an independent signature
        through the packed coverage body
        (:func:`repro.simulation.coverage.sample_complex_words`, so noise
        subclasses overriding ``sample_data_matrix`` are honoured); the work
        is batched so that at most ``batch_cycles * num_logical_qubits``
        signatures are held in memory at once.
        """
        if cycles <= 0:
            raise ConfigurationError(f"cycles must be positive, got {cycles}")
        if batch_cycles <= 0:
            raise ConfigurationError(
                f"batch_cycles must be positive, got {batch_cycles}"
            )
        generator = make_rng(rng)
        demand = np.zeros(cycles, dtype=np.int64)
        done = 0
        while done < cycles:
            batch = min(batch_cycles, cycles - done)
            rows = batch * self._num_qubits
            complex_words, _ = sample_complex_words(
                self._clique,
                self._packed_check,
                self._noise,
                self._rounds,
                rows,
                generator,
            )
            offchip = bitplane.unpack_trials(complex_words, rows)
            demand[done : done + batch] = offchip.reshape(
                batch, self._num_qubits
            ).sum(axis=1, dtype=np.int64)
            done += batch

        return MachineSimulationResult(
            num_logical_qubits=self._num_qubits,
            physical_error_rate=self._noise.data_error_rate,
            code_distance=self._code.distance,
            offchip_requests_per_cycle=demand,
        )


def empirical_plan(result: MachineSimulationResult, percentile: float) -> BandwidthPlan:
    """Provision the off-chip link from a measured demand trace.

    The measured counterpart of
    :func:`repro.bandwidth.allocation.provision_for_percentile`: instead of a
    binomial model, the capacity is the empirical percentile of the simulated
    per-cycle demand (never below one decode per cycle).
    """
    capacity = max(result.demand_percentile(percentile), 1)
    return BandwidthPlan(
        num_logical_qubits=result.num_logical_qubits,
        offchip_rate=result.offchip_rate_per_qubit,
        percentile=percentile,
        decodes_per_cycle=capacity,
    )


__all__ = ["MachineSimulationResult", "LogicalMachine", "empirical_plan"]
