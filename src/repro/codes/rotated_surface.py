"""The rotated surface code lattice (Section 2.2 and Fig. 3 of the paper).

A distance-``d`` rotated surface code uses ``d * d`` data qubits and
``d * d - 1`` ancilla qubits, split evenly between X-type and Z-type checks.
X-type checks detect Z data errors and terminate Z error chains on the
*left/right* lattice boundaries; Z-type checks detect X data errors and
terminate X error chains on the *top/bottom* boundaries.

The class below precomputes everything the rest of the library needs:

* stabilizer supports and parity-check matrices (``numpy`` uint8),
* the clique neighbourhood of every ancilla (same-type diagonal neighbours
  plus the data qubit shared with each neighbour) as used by the Clique
  decoder,
* the *boundary data qubits* of each ancilla: data qubits in the ancilla's
  support that no other same-type ancilla touches, i.e. locations where a
  single data error flips only that one ancilla (these drive the 1+1 / 1+2
  special cases of Fig. 5),
* logical operator supports used for logical-error detection in simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.codes import coordinates as coords
from repro.codes.stabilizers import Stabilizer, parity_check_matrix
from repro.exceptions import InvalidDistanceError
from repro.types import Coord, StabilizerType


@dataclass(frozen=True)
class Ancilla:
    """A single ancilla (parity) qubit and its precomputed neighbourhoods.

    Attributes:
        coord: doubled coordinate of the ancilla.
        type: X or Z stabilizer type.
        index: index of the ancilla within its own type's ordering (this is
            the row index into the corresponding parity-check matrix).
        data_qubits: data qubits in the check's support (weight 2 or 4).
        clique_neighbors: same-type ancillas sharing a data qubit with this
            one (between 1 and 4 of them), ordered consistently with
            ``shared_qubits``.
        shared_qubits: for each clique neighbour, the unique data qubit shared
            with it.
        boundary_qubits: data qubits in the support that no other same-type
            ancilla touches.  Non-empty only for edge/corner ancillas.
    """

    coord: Coord
    type: StabilizerType
    index: int
    data_qubits: tuple[Coord, ...]
    clique_neighbors: tuple[Coord, ...]
    shared_qubits: tuple[Coord, ...]
    boundary_qubits: tuple[Coord, ...]

    @property
    def weight(self) -> int:
        return len(self.data_qubits)

    @property
    def num_clique_neighbors(self) -> int:
        return len(self.clique_neighbors)

    @property
    def is_boundary(self) -> bool:
        """True when this ancilla can terminate an error chain on the lattice boundary."""
        return bool(self.boundary_qubits)


def check_distance(distance: object) -> None:
    """Reject a code distance that is not a Python ``int``, odd and >= 3.

    The one distance check behind the code constructor and every helper that
    takes a bare distance: floats (``5.0``, ``7.5``) and bools are refused
    with :class:`InvalidDistanceError`, as are even values and values below 3.
    """
    if not isinstance(distance, int) or distance < 3 or distance % 2 == 0:
        raise InvalidDistanceError(distance)


class RotatedSurfaceCode:
    """Geometry and stabilizer structure of a rotated surface code.

    Args:
        distance: the code distance ``d`` (odd integer >= 3).

    The constructor is deterministic: all orderings are sorted by doubled
    coordinate so two instances of the same distance are interchangeable.
    """

    def __init__(self, distance: int) -> None:
        check_distance(distance)
        self._distance = distance

        self._data_qubits = tuple(
            coords.data_coord(row, col)
            for row in range(distance)
            for col in range(distance)
        )
        self._data_index = {coord: i for i, coord in enumerate(self._data_qubits)}

        x_stabilizers, z_stabilizers = self._build_stabilizers()
        self._stabilizers = {
            StabilizerType.X: x_stabilizers,
            StabilizerType.Z: z_stabilizers,
        }
        self._ancillas = {
            stype: self._build_ancillas(stype) for stype in StabilizerType
        }
        self._ancilla_index = {
            stype: {a.coord: a.index for a in self._ancillas[stype]}
            for stype in StabilizerType
        }
        self._parity_check = {
            stype: parity_check_matrix(self._stabilizers[stype], self._data_index)
            for stype in StabilizerType
        }

        # Logical X runs top-to-bottom (a column of data qubits); logical Z
        # runs left-to-right (a row).  Residual Z errors are logical when they
        # anticommute with logical X, i.e. overlap the column an odd number of
        # times, and symmetrically for residual X errors and logical Z.
        self._logical_x_support = frozenset(
            coords.data_coord(row, 0) for row in range(distance)
        )
        self._logical_z_support = frozenset(
            coords.data_coord(0, col) for col in range(distance)
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _plaquette_type(plaq_row: int, plaq_col: int) -> StabilizerType:
        """Checkerboard type assignment for plaquette ``(r, c)``."""
        return StabilizerType.X if (plaq_row + plaq_col) % 2 == 0 else StabilizerType.Z

    def _plaquette_exists(self, plaq_row: int, plaq_col: int) -> bool:
        """Whether plaquette ``(r, c)`` hosts an ancilla in the rotated layout.

        Interior plaquettes always exist.  Boundary plaquettes exist only when
        their checkerboard type matches the boundary: X checks live on the
        top/bottom rows and Z checks on the left/right columns, which yields
        the standard ``d*d - 1`` ancilla count.
        """
        d = self._distance
        interior_row = 0 <= plaq_row <= d - 2
        interior_col = 0 <= plaq_col <= d - 2
        if interior_row and interior_col:
            return True
        ptype = self._plaquette_type(plaq_row, plaq_col)
        if plaq_row in (-1, d - 1) and interior_col:
            return ptype is StabilizerType.X
        if plaq_col in (-1, d - 1) and interior_row:
            return ptype is StabilizerType.Z
        return False

    def _data_in_bounds(self, coord: Coord) -> bool:
        d = self._distance
        return 0 <= coord.row <= 2 * (d - 1) and 0 <= coord.col <= 2 * (d - 1)

    def _build_stabilizers(
        self,
    ) -> tuple[tuple[Stabilizer, ...], tuple[Stabilizer, ...]]:
        d = self._distance
        x_stabs: list[Stabilizer] = []
        z_stabs: list[Stabilizer] = []
        for plaq_row in range(-1, d):
            for plaq_col in range(-1, d):
                if not self._plaquette_exists(plaq_row, plaq_col):
                    continue
                ancilla = coords.ancilla_coord(plaq_row, plaq_col)
                support = tuple(
                    sorted(
                        qubit
                        for qubit in coords.data_neighbors_of_ancilla(ancilla)
                        if self._data_in_bounds(qubit)
                    )
                )
                stype = self._plaquette_type(plaq_row, plaq_col)
                stabilizer = Stabilizer(ancilla=ancilla, type=stype, data_qubits=support)
                if stype is StabilizerType.X:
                    x_stabs.append(stabilizer)
                else:
                    z_stabs.append(stabilizer)
        x_stabs.sort(key=lambda s: s.ancilla)
        z_stabs.sort(key=lambda s: s.ancilla)
        return tuple(x_stabs), tuple(z_stabs)

    def _build_ancillas(self, stype: StabilizerType) -> tuple[Ancilla, ...]:
        stabilizers = self._stabilizers[stype]
        coords_of_type = {s.ancilla for s in stabilizers}
        support_of = {s.ancilla: set(s.data_qubits) for s in stabilizers}

        # A data qubit is a boundary qubit for this type when exactly one
        # ancilla of this type touches it.
        touch_count: dict[Coord, int] = {}
        for stabilizer in stabilizers:
            for qubit in stabilizer.data_qubits:
                touch_count[qubit] = touch_count.get(qubit, 0) + 1

        ancillas = []
        for index, stabilizer in enumerate(stabilizers):
            neighbors: list[Coord] = []
            shared: list[Coord] = []
            for candidate in sorted(coords.diagonal_ancilla_neighbors(stabilizer.ancilla)):
                if candidate not in coords_of_type:
                    continue
                common = support_of[stabilizer.ancilla] & support_of[candidate]
                if not common:
                    continue
                neighbors.append(candidate)
                shared.append(next(iter(common)))
            boundary = tuple(
                sorted(
                    qubit
                    for qubit in stabilizer.data_qubits
                    if touch_count[qubit] == 1
                )
            )
            ancillas.append(
                Ancilla(
                    coord=stabilizer.ancilla,
                    type=stype,
                    index=index,
                    data_qubits=stabilizer.data_qubits,
                    clique_neighbors=tuple(neighbors),
                    shared_qubits=tuple(shared),
                    boundary_qubits=boundary,
                )
            )
        return tuple(ancillas)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def distance(self) -> int:
        """The code distance ``d``."""
        return self._distance

    @property
    def num_data_qubits(self) -> int:
        """``d * d`` data qubits."""
        return len(self._data_qubits)

    @property
    def num_ancillas(self) -> int:
        """``d * d - 1`` ancilla qubits across both types."""
        return sum(len(a) for a in self._ancillas.values())

    @property
    def data_qubits(self) -> tuple[Coord, ...]:
        """All data qubits, sorted by coordinate."""
        return self._data_qubits

    @property
    def data_index(self) -> dict[Coord, int]:
        """Mapping from data-qubit coordinate to column index in parity-check matrices."""
        return dict(self._data_index)

    def ancillas(self, stype: StabilizerType) -> tuple[Ancilla, ...]:
        """All ancillas of the given stabilizer type, sorted by coordinate."""
        return self._ancillas[stype]

    def ancilla(self, stype: StabilizerType, coord: Coord) -> Ancilla:
        """Look up a single ancilla by coordinate."""
        return self._ancillas[stype][self._ancilla_index[stype][coord]]

    def ancilla_index(self, stype: StabilizerType) -> dict[Coord, int]:
        """Mapping from ancilla coordinate to syndrome-bit index for one type."""
        return dict(self._ancilla_index[stype])

    def num_ancillas_of_type(self, stype: StabilizerType) -> int:
        return len(self._ancillas[stype])

    def stabilizers(self, stype: StabilizerType) -> tuple[Stabilizer, ...]:
        """Stabilizer generators of the given type."""
        return self._stabilizers[stype]

    def parity_check(self, stype: StabilizerType) -> np.ndarray:
        """Binary parity-check matrix of shape ``(num ancillas of type, num data)``."""
        return self._parity_check[stype]

    def logical_support(self, stype: StabilizerType) -> frozenset[Coord]:
        """Support of the logical operator of the given Pauli type.

        ``logical_support(StabilizerType.X)`` is the logical X column and
        ``logical_support(StabilizerType.Z)`` is the logical Z row.
        """
        if stype is StabilizerType.X:
            return self._logical_x_support
        return self._logical_z_support

    def syndrome_of(
        self, error: frozenset[Coord] | set[Coord], stype: StabilizerType
    ) -> np.ndarray:
        """Syndrome (uint8 vector) produced by a set of data errors.

        ``stype`` names the *stabilizer* type doing the measuring; the errors
        are implicitly of the opposite Pauli species (X checks measure Z
        errors and vice versa).
        """
        vector = np.zeros(self.num_data_qubits, dtype=np.uint8)
        for qubit in error:
            vector[self._data_index[qubit]] = 1
        return (self._parity_check[stype] @ vector) % 2

    def is_logical_error(
        self, residual: frozenset[Coord] | set[Coord], stype: StabilizerType
    ) -> bool:
        """Whether a residual error of species ``stype.detects`` flips the logical qubit.

        The residual must already have a zero syndrome (i.e. be a product of
        stabilizers and possibly a logical operator); the check is simply the
        overlap parity with the anticommuting logical operator.
        """
        if stype is StabilizerType.X:
            # Residual Z errors anticommute with logical X (a column).
            support = self._logical_x_support
        else:
            support = self._logical_z_support
        return sum(1 for qubit in residual if qubit in support) % 2 == 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RotatedSurfaceCode(distance={self._distance})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RotatedSurfaceCode) and other.distance == self.distance

    def __hash__(self) -> int:
        return hash(("RotatedSurfaceCode", self._distance))

    def __reduce__(self) -> tuple[object, tuple[int]]:
        # Same-distance instances are interchangeable, so a pickle carries
        # only the distance and unpickling resolves the process-local
        # get_code cache: a shard kernel ships a few hundred bytes, where the
        # lattice itself pickles to ~300 kB at d=21.
        return get_code, (self._distance,)


@lru_cache(maxsize=64)
def get_code(distance: int) -> RotatedSurfaceCode:
    """Cached constructor: building the lattice is pure and deterministic."""
    return RotatedSurfaceCode(distance)


__all__ = ["Ancilla", "RotatedSurfaceCode", "check_distance", "get_code"]
