"""Power / area / latency estimation for the synthesised Clique decoder (Fig. 15)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.exceptions import ConfigurationError
from repro.hardware.cells import CellLibrary, ERSFQ_LIBRARY
from repro.hardware.netlist import Netlist
from repro.hardware.nisqplus import NisqPlusOverheads, nisqplus_overheads
from repro.hardware.synthesis import synthesize_clique_decoder

#: Empirical ERSFQ power density per Josephson junction (bias distribution plus
#: switching at the syndrome-cycle rate).  Calibrated so the synthesised Clique
#: decoder lands in the 10 uW (d=3) to 500 uW (d=21) per-logical-qubit range
#: the paper reports in Fig. 15.
POWER_PER_JJ_W = 4.0e-9

#: Dilution refrigerators can typically extract about 1 W at the 4 K stage
#: (Section 7.4), which bounds how many logical qubits one fridge can host.
FRIDGE_COOLING_BUDGET_W = 1.0


@dataclass(frozen=True)
class DecoderOverheads:
    """Per-logical-qubit hardware cost of an on-chip decoder."""

    distance: int
    measurement_rounds: int
    power_w: float
    area_mm2: float
    latency_ns: float
    jj_count: int
    cell_count: int

    @property
    def power_uw(self) -> float:
        return self.power_w * 1e6

    @property
    def supported_logical_qubits(self) -> int:
        """How many logical qubits fit in the fridge cooling budget."""
        if self.power_w <= 0:
            raise ConfigurationError("power must be positive to size the fridge budget")
        return int(FRIDGE_COOLING_BUDGET_W // self.power_w)


def estimate_overheads(
    netlist: Netlist,
    distance: int,
    measurement_rounds: int = 2,
    library: CellLibrary = ERSFQ_LIBRARY,
    power_per_jj_w: float = POWER_PER_JJ_W,
) -> DecoderOverheads:
    """Cost a synthesised netlist with the ERSFQ library."""
    jj = netlist.total_jj(library)
    return DecoderOverheads(
        distance=distance,
        measurement_rounds=measurement_rounds,
        power_w=jj * power_per_jj_w,
        area_mm2=netlist.total_area_mm2(library),
        latency_ns=netlist.critical_path_delay_ps(library) / 1000.0,
        jj_count=jj,
        cell_count=netlist.total_cells,
    )


@lru_cache(maxsize=128, typed=True)
def clique_overheads(distance: int, measurement_rounds: int = 2) -> DecoderOverheads:
    """Synthesise and cost the Clique decoder for one logical qubit.

    The cache is typed so ``measurement_rounds=True`` is not served the
    1-round entry: it reaches the synthesis check and is refused."""
    netlist = synthesize_clique_decoder(distance, measurement_rounds=measurement_rounds)
    return estimate_overheads(netlist, distance, measurement_rounds)


def compare_with_nisqplus(distance: int, measurement_rounds: int = 2) -> dict[str, float]:
    """Clique-vs-NISQ+ comparison in the style of Section 7.4.

    Returns a dictionary with the absolute Clique and NISQ+ estimates at the
    requested distance plus the improvement factors (NISQ+ cost divided by
    Clique cost).
    """
    clique = clique_overheads(distance, measurement_rounds)
    anchor = clique_overheads(9, measurement_rounds)
    nisq: NisqPlusOverheads = nisqplus_overheads(
        distance,
        clique_power_w_at_9=anchor.power_w,
        clique_area_mm2_at_9=anchor.area_mm2,
        clique_latency_ns_at_9=anchor.latency_ns,
    )
    return {
        "distance": float(distance),
        "clique_power_uw": clique.power_uw,
        "clique_area_mm2": clique.area_mm2,
        "clique_latency_ns": clique.latency_ns,
        "nisqplus_power_uw": nisq.power_w * 1e6,
        "nisqplus_area_mm2": nisq.area_mm2,
        "nisqplus_latency_ns": nisq.latency_ns,
        "nisqplus_worst_case_latency_ns": nisq.worst_case_latency_ns,
        "power_improvement": nisq.power_w / clique.power_w,
        "area_improvement": nisq.area_mm2 / clique.area_mm2,
        "latency_improvement": nisq.latency_ns / clique.latency_ns,
    }


__all__ = [
    "POWER_PER_JJ_W",
    "FRIDGE_COOLING_BUDGET_W",
    "DecoderOverheads",
    "estimate_overheads",
    "clique_overheads",
    "compare_with_nisqplus",
]
