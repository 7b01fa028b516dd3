"""Fig. 4's classification: the one-cycle oracle, and production against it.

``signature_oracle.classify_error_configuration`` labels one cycle from its
injected error sets.  The first class pins that oracle's rules; the second
replays :func:`repro.simulation.cycles.sample_cycle_planes`' two draws (data
field, then measurement flips) densely from the same seed and checks, cycle
by cycle, that the packed
:func:`repro.simulation.cycles.classify_cycle_planes` gives the oracle's
label; the third hand-builds cycles on the weight-2 boundary stabilizers,
whose padded support slots must not count as touches.
"""

from __future__ import annotations

import numpy as np
import pytest
from signature_oracle import classify_error_configuration

from repro import bitplane
from repro.codes.rotated_surface import get_code
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.cycles import classify_cycle_planes, sample_cycle_planes
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


def _packed_labels(code, stype, data, flips):
    """Per-cycle labels of the packed classifier on dense ``(cycles, *)`` draws."""
    cycles = len(data)
    classes = classify_cycle_planes(
        code, stype, bitplane.pack_trials(data), bitplane.pack_trials(flips), cycles
    )
    hits = bitplane.unpack_trials(np.stack(classes)[:, np.newaxis], cycles)[:, :, 0]
    labels = (SignatureClass.ALL_ZEROS, SignatureClass.LOCAL_ONES, SignatureClass.COMPLEX)
    assert (hits.sum(axis=1) == 1).all()
    return [labels[index] for index in hits.argmax(axis=1)]


def _oracle_label(code, stype, data_row, flip_row):
    ancillas = [ancilla.coord for ancilla in code.ancillas(stype)]
    return classify_error_configuration(
        code,
        stype,
        {code.data_qubits[i] for i in np.flatnonzero(data_row)},
        {ancillas[i] for i in np.flatnonzero(flip_row)},
    )


class TestPackedClassifierMatchesOracle:
    @pytest.mark.parametrize("error_rate", [1e-3, 1e-2, 5e-2])
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_every_cycle_gets_the_oracle_label(self, distance, stype, error_rate):
        code = get_code(distance)
        noise = PhenomenologicalNoise(error_rate)
        seed = 1000 * distance + int(stype is StabilizerType.Z)
        planes = sample_cycle_planes(
            code, stype, noise, error_rate, ORACLE_CYCLES, np.random.default_rng(seed)
        )

        generator = np.random.default_rng(seed)
        data = noise.sample_data_matrix(code, ORACLE_CYCLES, generator)
        flips = generator.random((ORACLE_CYCLES, len(code.ancillas(stype)))) < error_rate
        assert np.array_equal(planes[0], bitplane.pack_trials(data))
        assert np.array_equal(planes[1], bitplane.pack_trials(flips))
        labels = _packed_labels(code, stype, data, flips)
        for cycle in range(ORACLE_CYCLES):
            expected = _oracle_label(code, stype, data[cycle], flips[cycle])
            assert labels[cycle] is expected, f"cycle {cycle}"


class TestWeightTwoBoundaryStabilizers:
    """The packed parity check pads a weight-2 row by repeating a support
    column; the touch counter must read the two real qubits only."""

    @pytest.mark.parametrize("distance", [3, 5])
    def test_one_error_is_local_and_two_are_complex(self, distance, stype):
        code = get_code(distance)
        boundary = [ancilla for ancilla in code.ancillas(stype) if ancilla.weight == 2]
        assert boundary
        data = []
        for ancilla in boundary:
            support = [code.data_index[qubit] for qubit in ancilla.data_qubits]
            for columns in ([support[0]], [support[1]], support):
                row = np.zeros(code.num_data_qubits, dtype=np.uint8)
                row[columns] = 1
                data.append(row)
        data = np.array(data)
        flips = np.zeros((len(data), len(code.ancillas(stype))), dtype=np.uint8)
        expected = [SignatureClass.LOCAL_ONES, SignatureClass.LOCAL_ONES, SignatureClass.COMPLEX]
        assert _packed_labels(code, stype, data, flips) == expected * len(boundary)
        assert [
            _oracle_label(code, stype, d, f) for d, f in zip(data, flips)
        ] == expected * len(boundary)
