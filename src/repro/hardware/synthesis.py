"""Analytical synthesis of the Clique decoder into an ERSFQ netlist.

The paper writes the decoder in verilog and maps it with SFQMap; we generate
the equivalent gate-level structure directly from the lattice geometry.  The
circuit has four parts (Figs. 5-7 of the paper):

1. **Measurement-persistence filter** (per ancilla): compares the raw ancilla
   readout across ``rounds`` measurement rounds — one DFF per remembered
   round plus XOR/NOT/AND per comparison (Fig. 7).
2. **Clique decision logic** (per clique): an XOR parity tree over the
   clique's leaves, a NOT, and an AND with the primary ancilla (Fig. 6);
   boundary cliques add an OR-tree + NOT + AND implementing the
   "no leaf set" escape of the 1+1 / 1+2 special cases.
3. **Global complex flag**: an OR reduction tree across all cliques; if any
   clique raises COMPLEX the syndrome is shipped off-chip.
4. **Correction drivers** (per data qubit): an AND of the (up to two)
   same-type ancillas adjacent to the qubit; boundary data qubits reuse the
   "no leaf set" signal of their unique ancilla.

On top of the logic we add the two SFQ-specific overheads the EDA flow would
insert: *splitters* (SFQ gates have fan-out one, so a signal driving ``f``
sinks needs ``f - 1`` SPLIT cells) and *path-balancing DFFs* (every
reconvergent path must have equal depth; we use the standard rule of thumb of
one DFF per two logic cells, consistent with the overheads reported for
SFQMap-style flows).
"""

from __future__ import annotations

from repro.clique.cliques import build_cliques
from repro.clique.measurement_filter import check_measurement_rounds
from repro.codes.rotated_surface import RotatedSurfaceCode, get_code
from repro.hardware.netlist import Netlist
from repro.types import StabilizerType

#: Path-balancing DFFs inserted per two logic cells (SFQ full path balancing).
PATH_BALANCE_DFF_PER_LOGIC_CELL = 0.5


def _parity_tree_size(num_inputs: int) -> tuple[int, int]:
    """(gate count, depth) of a binary XOR/OR reduction tree over ``num_inputs``."""
    if num_inputs <= 1:
        return 0, 0
    gates = num_inputs - 1
    depth = (num_inputs - 1).bit_length()
    return gates, depth


def _persistence_filter_netlist(num_ancillas: int, rounds: int) -> Netlist:
    """Per-ancilla measurement persistence filter of Fig. 7, replicated."""
    netlist = Netlist(name="persistence-filter")
    if rounds == 1:
        # No filtering: raw detections feed the cliques directly.
        netlist.critical_path = ()
        return netlist
    per_ancilla_dff = rounds - 1          # remember the previous rounds
    per_ancilla_xor = rounds - 1          # flip detection per consecutive pair
    per_ancilla_not = rounds - 1          # "stayed as is" inversion
    per_ancilla_and = rounds - 1          # combine flip with persistence
    netlist.add_cells("DFF", per_ancilla_dff * num_ancillas)
    netlist.add_cells("XOR2", per_ancilla_xor * num_ancillas)
    netlist.add_cells("NOT", per_ancilla_not * num_ancillas)
    netlist.add_cells("AND2", per_ancilla_and * num_ancillas)
    netlist.critical_path = ("DFF", "XOR2", "NOT", "AND2")
    return netlist


def _clique_decision_netlist(code: RotatedSurfaceCode, stype: StabilizerType) -> Netlist:
    """Decision logic of Fig. 6 for every clique of one stabilizer type."""
    netlist = Netlist(name="clique-decision")
    deepest_parity_depth = 0
    for clique in build_cliques(code, stype):
        parity_gates, parity_depth = _parity_tree_size(clique.num_neighbors)
        netlist.add_cells("XOR2", parity_gates)
        netlist.add_cells("NOT", 1)
        netlist.add_cells("AND2", 1)
        deepest_parity_depth = max(deepest_parity_depth, parity_depth)
        if clique.has_boundary:
            # "No leaf set" escape: OR-reduce the leaves, invert, AND with the
            # even-parity complex candidate to suppress it.
            or_gates, _ = _parity_tree_size(max(clique.num_neighbors, 1))
            netlist.add_cells("OR2", or_gates)
            netlist.add_cells("NOT", 1)
            netlist.add_cells("AND2", 1)
    netlist.critical_path = ("XOR2",) * deepest_parity_depth + ("NOT", "AND2")
    return netlist


def _global_flag_netlist(num_cliques: int) -> Netlist:
    """OR reduction across all cliques producing the global COMPLEX flag."""
    netlist = Netlist(name="complex-flag")
    gates, depth = _parity_tree_size(num_cliques)
    netlist.add_cells("OR2", gates)
    netlist.critical_path = ("OR2",) * depth
    return netlist


def _correction_netlist(code: RotatedSurfaceCode, stype: StabilizerType) -> Netlist:
    """Per-data-qubit correction drivers (the AND of the pseudocode in Fig. 5)."""
    netlist = Netlist(name="correction-drivers")
    touch_count: dict = {}
    for ancilla in code.ancillas(stype):
        for qubit in ancilla.data_qubits:
            touch_count[qubit] = touch_count.get(qubit, 0) + 1
    for _qubit, touches in touch_count.items():
        # Interior data qubits AND their two adjacent same-type ancillas;
        # boundary data qubits AND the single ancilla with its "no leaf set"
        # escape signal — one AND2 either way.
        netlist.add_cells("AND2", 1 if touches >= 1 else 0)
    netlist.critical_path = ("AND2",)
    return netlist


def _splitter_netlist(code: RotatedSurfaceCode, stype: StabilizerType, rounds: int) -> Netlist:
    """SFQ splitter insertion: every extra fan-out of a signal costs one SPLIT."""
    netlist = Netlist(name="splitters")
    total_splits = 0
    for clique in build_cliques(code, stype):
        # The (filtered) syndrome bit of each ancilla drives: its own clique's
        # AND, the parity trees of each neighbouring clique, and the correction
        # ANDs of its adjacent data qubits.
        fanout = 1 + clique.num_neighbors + len(clique.shared_qubits) + len(
            clique.boundary_qubits
        )
        total_splits += max(fanout - 1, 0)
        # The raw measurement bit also feeds the persistence filter's DFF chain.
        if rounds > 1:
            total_splits += 1
    netlist.add_cells("SPLIT", total_splits)
    netlist.critical_path = ("SPLIT",)
    return netlist


def synthesize_clique_decoder(
    code_or_distance: RotatedSurfaceCode | int,
    measurement_rounds: int = 2,
    include_both_types: bool = True,
) -> Netlist:
    """Synthesise the full Clique decoder for one logical qubit.

    Args:
        code_or_distance: a :class:`RotatedSurfaceCode` or a bare distance.
        measurement_rounds: persistence-filter window (2 in the paper).
        include_both_types: the physical decoder handles X and Z planes; set
            False to synthesise a single plane (useful for unit tests).

    Returns:
        The merged :class:`Netlist` including splitters and path-balancing
        DFFs, with the critical path recorded through filter, clique decision
        and global-flag stages.
    """
    check_measurement_rounds(measurement_rounds)
    code = (
        code_or_distance
        if isinstance(code_or_distance, RotatedSurfaceCode)
        else get_code(code_or_distance)
    )
    types = (StabilizerType.X, StabilizerType.Z) if include_both_types else (StabilizerType.X,)

    total = Netlist(name=f"clique-decoder-d{code.distance}")
    for stype in types:
        num_ancillas = code.num_ancillas_of_type(stype)
        filter_net = _persistence_filter_netlist(num_ancillas, measurement_rounds)
        decision_net = _clique_decision_netlist(code, stype)
        flag_net = _global_flag_netlist(num_ancillas)
        correction_net = _correction_netlist(code, stype)
        splitter_net = _splitter_netlist(code, stype, measurement_rounds)

        # Series composition along the decode pipeline for the critical path;
        # the correction drivers hang off the same stage as the global flag.
        plane = filter_net.merge(decision_net, share_critical_path=False)
        plane = plane.merge(flag_net, share_critical_path=False)
        plane = plane.merge(correction_net, share_critical_path=True)
        plane = plane.merge(splitter_net, share_critical_path=True)
        total = total.merge(plane, share_critical_path=True)

    logic_cells = total.total_cells - total.count("SPLIT") - total.count("DFF")
    balancing_dffs = int(round(logic_cells * PATH_BALANCE_DFF_PER_LOGIC_CELL))
    total.add_cells("DFF", balancing_dffs)
    total.name = f"clique-decoder-d{code.distance}-r{measurement_rounds}"
    return total


__all__ = ["synthesize_clique_decoder", "PATH_BALANCE_DFF_PER_LOGIC_CELL"]
