"""Per-cycle ground-truth classification (Fig. 4): a test oracle.

The paper buckets each decode cycle's error signature into three classes:

* **All-0s** - the signature is empty (no ancilla detected anything);
* **Local-1s** - errors occurred but all of them are *isolated*: no two error
  events interact with a common ancilla, so purely local reasoning suffices;
* **Complex** - at least one chain of two or more interacting errors exists,
  so a global decoder is needed.

The production path (:func:`repro.simulation.cycles.classify_cycle_planes`)
classifies a whole batch of cycles at once on packed bitplanes.  This
module keeps the readable one-cycle formulation over coordinate sets, which
``test_signature_oracle.py`` checks it against cycle by cycle.
"""

from __future__ import annotations

from collections import Counter

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.types import Coord, SignatureClass, StabilizerType


def classify_error_configuration(
    code: RotatedSurfaceCode,
    stype: StabilizerType,
    data_errors: frozenset[Coord] | set[Coord],
    measurement_errors: frozenset[Coord] | set[Coord] = frozenset(),
) -> SignatureClass:
    """Classify one cycle's injected errors into All-0s / Local-1s / Complex.

    ``data_errors`` are errors of the species detected by ``stype`` checks;
    ``measurement_errors`` are ancillas (of type ``stype``) whose readout
    flipped this cycle.

    Two error events are considered part of the same chain when they touch a
    common ancilla of the measuring type: two data errors sharing an ancilla,
    a data error adjacent to a flipped measurement, or (degenerately) two
    measurement flips on the same ancilla.  A configuration with any chain of
    length >= 2 is Complex; otherwise it is Local-1s if the resulting
    signature is non-empty and All-0s if it is empty.
    """
    signature = code.syndrome_of(data_errors, stype)
    meas_index = code.ancilla_index(stype)
    for coord in measurement_errors:
        signature[meas_index[coord]] ^= 1
    if not signature.any():
        return SignatureClass.ALL_ZEROS

    # Count, per ancilla, how many error events touch it.  Any ancilla touched
    # by two or more events witnesses an interacting chain.
    touches: Counter[Coord] = Counter()
    parity_check_supports = {
        ancilla.coord: set(ancilla.data_qubits) for ancilla in code.ancillas(stype)
    }
    for ancilla_coord, support in parity_check_supports.items():
        for qubit in data_errors:
            if qubit in support:
                touches[ancilla_coord] += 1
    for coord in measurement_errors:
        touches[coord] += 1

    if any(count >= 2 for count in touches.values()):
        return SignatureClass.COMPLEX
    return SignatureClass.LOCAL_ONES
