"""Conversion from binary error vectors to coordinate sets.

The library samples and decodes errors as binary numpy vectors indexed by
the code's ``data_index`` / ``ancilla_index`` orderings;
:func:`vector_to_errors` turns one back into the coordinate set
(``frozenset[Coord]``) that decoder corrections and the code's
coordinate-level checks use.
"""

from __future__ import annotations

import numpy as np

from repro.types import Coord


def vector_to_errors(vector: np.ndarray, ordering: tuple[Coord, ...]) -> frozenset[Coord]:
    """Convert a binary vector back into a coordinate set.

    ``ordering`` must list coordinates in the same order the vector was built
    with (e.g. ``code.data_qubits``).
    """
    if len(vector) != len(ordering):
        raise ValueError(
            f"vector length {len(vector)} does not match ordering length {len(ordering)}"
        )
    return frozenset(coord for coord, bit in zip(ordering, vector) if bit)


__all__ = ["vector_to_errors"]
