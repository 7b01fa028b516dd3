"""Fig. 4's classification: the one-cycle oracle, and production against it.

``signature_oracle.classify_error_configuration`` labels one cycle from its
injected error sets.  The first class pins that oracle's rules; the second
replays ``sample_cycle_signatures``' two draws (data field, then
measurement flips) from the same seed and checks, cycle by cycle, that the
batched :func:`repro.simulation.cycles.classify_cycles` gives the oracle's
label.
"""

from __future__ import annotations

import numpy as np
import pytest
from signature_oracle import classify_error_configuration

from repro.codes.rotated_surface import get_code
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.cycles import classify_cycles, sample_cycle_signatures
from repro.types import Coord, SignatureClass, StabilizerType


class TestClassifyErrorConfiguration:
    def test_no_errors_is_all_zeros(self, code_d5, stype):
        assert (
            classify_error_configuration(code_d5, stype, frozenset())
            is SignatureClass.ALL_ZEROS
        )

    def test_single_data_error_is_local(self, code_d5, stype):
        error = {code_d5.data_qubits[code_d5.num_data_qubits // 2]}
        assert (
            classify_error_configuration(code_d5, stype, error)
            is SignatureClass.LOCAL_ONES
        )

    def test_single_measurement_error_is_local(self, code_d5, stype):
        ancilla = code_d5.ancillas(stype)[0].coord
        assert (
            classify_error_configuration(code_d5, stype, frozenset(), {ancilla})
            is SignatureClass.LOCAL_ONES
        )

    def test_two_distant_errors_are_local(self, code_d7):
        errors = {Coord(0, 0), Coord(12, 12)}
        assert (
            classify_error_configuration(code_d7, StabilizerType.X, errors)
            is SignatureClass.LOCAL_ONES
        )

    def test_adjacent_error_chain_is_complex(self, code_d5):
        # Two data errors sharing an X ancilla form a chain of length 2.
        ancilla = next(
            a for a in code_d5.ancillas(StabilizerType.X) if a.weight == 4
        )
        errors = set(ancilla.data_qubits[:2])
        assert (
            classify_error_configuration(code_d5, StabilizerType.X, errors)
            is SignatureClass.COMPLEX
        )

    def test_data_error_next_to_measurement_error_is_complex(self, code_d5):
        ancilla = next(a for a in code_d5.ancillas(StabilizerType.X) if a.weight == 4)
        # Use a shared (non-boundary) data qubit so the two events do not
        # cancel each other's signature on the common ancilla.
        data_error = {ancilla.shared_qubits[0]}
        assert (
            classify_error_configuration(
                code_d5, StabilizerType.X, data_error, {ancilla.coord}
            )
            is SignatureClass.COMPLEX
        )

    def test_cancelled_signature_counts_as_all_zeros(self, code_d5):
        # A measurement error on an ancilla plus a boundary data error that
        # flips only that ancilla cancel out: nothing is detected.
        ancilla = next(
            a for a in code_d5.ancillas(StabilizerType.X) if a.boundary_qubits
        )
        result = classify_error_configuration(
            code_d5,
            StabilizerType.X,
            {ancilla.boundary_qubits[0]},
            {ancilla.coord},
        )
        assert result is SignatureClass.ALL_ZEROS


ORACLE_CYCLES = 400


class TestClassifyCyclesMatchesOracle:
    @pytest.mark.parametrize("error_rate", [1e-3, 1e-2, 5e-2])
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_every_cycle_gets_the_oracle_label(self, distance, stype, error_rate):
        code = get_code(distance)
        noise = PhenomenologicalNoise(error_rate)
        seed = 1000 * distance + int(stype is StabilizerType.Z)
        signatures, _flips, touches = sample_cycle_signatures(
            code, stype, noise, ORACLE_CYCLES, seed, return_touch_counts=True
        )
        all_zeros, local_ones, complex_ = classify_cycles(signatures, touches)

        generator = np.random.default_rng(seed)
        data = noise.sample_data_matrix(code, ORACLE_CYCLES, generator)
        flips = noise.sample_measurement_matrix(code, stype, ORACLE_CYCLES, generator)
        ancillas = [ancilla.coord for ancilla in code.ancillas(stype)]
        for cycle in range(ORACLE_CYCLES):
            expected = classify_error_configuration(
                code,
                stype,
                {code.data_qubits[i] for i in np.flatnonzero(data[cycle])},
                {ancillas[i] for i in np.flatnonzero(flips[cycle])},
            )
            labels = {
                SignatureClass.ALL_ZEROS: all_zeros[cycle],
                SignatureClass.LOCAL_ONES: local_ones[cycle],
                SignatureClass.COMPLEX: complex_[cycle],
            }
            assert [cls for cls, hit in labels.items() if hit] == [expected], (
                f"cycle {cycle}"
            )
