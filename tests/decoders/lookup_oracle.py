"""Exhaustive lookup-table decoder: a test oracle for small code distances.

For small codes under *code-capacity* noise (perfect measurements, single
round) it is feasible to precompute the minimum-weight correction for every
possible syndrome by enumerating error patterns in order of increasing
weight.  The result is provably optimal, which makes this decoder the
reference that ``test_mwpm.py`` checks MWPM's correction weights against
(it mirrors the LUT decoders of Tomita & Svore / LILLIPUT referenced by the
paper).  No production path uses it, so it lives with the tests.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder, DecodeResult
from repro.exceptions import ConfigurationError, DecodingError
from repro.types import Coord, StabilizerType


class LookupDecoder(Decoder):
    """Optimal single-round decoder built from an exhaustive syndrome table.

    Args:
        code: surface code instance (distances above ``max_distance`` are
            rejected because the table grows exponentially).
        stype: stabilizer type to decode.
        max_distance: safety limit on the supported code distance.
    """

    def __init__(
        self,
        code: RotatedSurfaceCode,
        stype: StabilizerType,
        max_distance: int = 5,
    ) -> None:
        super().__init__(code, stype)
        if code.distance > max_distance:
            raise ConfigurationError(
                f"LookupDecoder supports distance <= {max_distance}, "
                f"got {code.distance}"
            )
        self._table = self._build_table()

    # ------------------------------------------------------------------
    def _build_table(self) -> dict[bytes, frozenset[Coord]]:
        """Map every reachable syndrome to a minimum-weight correction."""
        code = self._code
        stype = self._stype
        num_syndromes = 2 ** code.num_ancillas_of_type(stype)
        table: dict[bytes, frozenset[Coord]] = {}
        qubits = code.data_qubits
        for weight in range(0, code.num_data_qubits + 1):
            if len(table) == num_syndromes:
                break
            for combo in combinations(qubits, weight):
                error = frozenset(combo)
                key = code.syndrome_of(error, stype).tobytes()
                if key not in table:
                    table[key] = error
        return table

    @property
    def table_size(self) -> int:
        """Number of distinct syndromes the table covers."""
        return len(self._table)

    # ------------------------------------------------------------------
    def decode(self, detections: np.ndarray) -> DecodeResult:
        matrix = self._as_detection_matrix(detections)
        if matrix.shape[0] != 1:
            raise DecodingError(
                "LookupDecoder only supports single-round (code capacity) decoding"
            )
        key = matrix[0].astype(np.uint8).tobytes()
        try:
            correction = self._table[key]
        except KeyError as exc:  # pragma: no cover - table is exhaustive
            raise DecodingError("syndrome missing from lookup table") from exc
        return DecodeResult(
            correction=correction, metadata={"correction_weight": len(correction)}
        )

