"""Geometry invariants of the rotated surface code."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandwidth.traffic import syndrome_bits_per_cycle
from repro.codes.distance import logical_error_rate_estimate
from repro.codes.rotated_surface import RotatedSurfaceCode, get_code
from repro.exceptions import InvalidDistanceError
from repro.hardware.nisqplus import nisqplus_overheads
from repro.types import Coord, StabilizerType

DISTANCES = [3, 5, 7, 9]


class TestConstruction:
    @pytest.mark.parametrize("bad", [2, 4, 1, 0, -3, 3.0, "3"])
    def test_rejects_invalid_distances(self, bad):
        with pytest.raises(InvalidDistanceError):
            RotatedSurfaceCode(bad)

    @pytest.mark.parametrize("bad", [5.0, 7.5, True, 4, 1])
    @pytest.mark.parametrize(
        "helper",
        [
            syndrome_bits_per_cycle,
            lambda distance: nisqplus_overheads(distance, 1.0, 1.0, 1.0),
            lambda distance: logical_error_rate_estimate(1e-3, distance),
        ],
        ids=["syndrome_bits_per_cycle", "nisqplus_overheads", "logical_error_rate"],
    )
    def test_distance_helpers_share_the_constructor_rule(self, helper, bad):
        # Floats are refused as the constructor refuses them, not rounded
        # into a cost or a rate for a lattice that cannot exist.
        with pytest.raises(InvalidDistanceError):
            helper(bad)

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_qubit_counts(self, distance):
        code = RotatedSurfaceCode(distance)
        assert code.num_data_qubits == distance**2
        assert code.num_ancillas == distance**2 - 1

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_equal_split_between_types(self, distance):
        code = RotatedSurfaceCode(distance)
        x_count = code.num_ancillas_of_type(StabilizerType.X)
        z_count = code.num_ancillas_of_type(StabilizerType.Z)
        assert x_count == z_count == (distance**2 - 1) // 2

    def test_get_code_caches_instances(self):
        assert get_code(5) is get_code(5)

    def test_equality_and_hash_by_distance(self):
        assert RotatedSurfaceCode(3) == RotatedSurfaceCode(3)
        assert RotatedSurfaceCode(3) != RotatedSurfaceCode(5)
        assert hash(RotatedSurfaceCode(3)) == hash(RotatedSurfaceCode(3))


class TestStabilizers:
    @pytest.mark.parametrize("distance", DISTANCES)
    def test_stabilizer_weights_are_two_or_four(self, distance, stype):
        code = RotatedSurfaceCode(distance)
        weights = [s.weight for s in code.stabilizers(stype)]
        assert set(weights) <= {2, 4}

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_number_of_weight_two_stabilizers(self, distance, stype):
        # Each boundary hosts (d - 1) / 2 weight-2 checks of a single type.
        code = RotatedSurfaceCode(distance)
        weight_two = sum(1 for s in code.stabilizers(stype) if s.weight == 2)
        assert weight_two == distance - 1

    def test_every_data_qubit_covered_by_each_type(self, code, stype):
        covered = set()
        for stabilizer in code.stabilizers(stype):
            covered.update(stabilizer.data_qubits)
        assert covered == set(code.data_qubits)

    def test_stabilizers_commute_across_types(self, code):
        # X and Z checks must overlap on an even number of data qubits.
        for x_stab in code.stabilizers(StabilizerType.X):
            x_support = set(x_stab.data_qubits)
            for z_stab in code.stabilizers(StabilizerType.Z):
                overlap = len(x_support & set(z_stab.data_qubits))
                assert overlap % 2 == 0

    def test_parity_check_shape(self, code, stype):
        matrix = code.parity_check(stype)
        assert matrix.shape == (
            code.num_ancillas_of_type(stype),
            code.num_data_qubits,
        )
        assert matrix.dtype == np.uint8

    def test_parity_check_row_weights_match_stabilizers(self, code, stype):
        matrix = code.parity_check(stype)
        for stabilizer, row in zip(code.stabilizers(stype), matrix):
            assert row.sum() == stabilizer.weight


class TestAncillaNeighborhoods:
    def test_clique_neighbor_counts_are_between_one_and_four(self, code, stype):
        for ancilla in code.ancillas(stype):
            assert 1 <= ancilla.num_clique_neighbors <= 4

    def test_clique_neighbors_are_symmetric(self, code, stype):
        index = code.ancilla_index(stype)
        ancillas = code.ancillas(stype)
        for ancilla in ancillas:
            for neighbor_coord in ancilla.clique_neighbors:
                neighbor = ancillas[index[neighbor_coord]]
                assert ancilla.coord in neighbor.clique_neighbors

    def test_shared_qubits_belong_to_both_supports(self, code, stype):
        index = code.ancilla_index(stype)
        ancillas = code.ancillas(stype)
        for ancilla in ancillas:
            for neighbor_coord, shared in zip(ancilla.clique_neighbors, ancilla.shared_qubits):
                neighbor = ancillas[index[neighbor_coord]]
                assert shared in ancilla.data_qubits
                assert shared in neighbor.data_qubits

    def test_boundary_qubits_touch_only_one_ancilla(self, code, stype):
        touch_count: dict[Coord, int] = {}
        for ancilla in code.ancillas(stype):
            for qubit in ancilla.data_qubits:
                touch_count[qubit] = touch_count.get(qubit, 0) + 1
        for ancilla in code.ancillas(stype):
            for qubit in ancilla.boundary_qubits:
                assert touch_count[qubit] == 1

    def test_every_data_qubit_touches_at_most_two_ancillas_per_type(self, code, stype):
        touch_count: dict[Coord, int] = {}
        for ancilla in code.ancillas(stype):
            for qubit in ancilla.data_qubits:
                touch_count[qubit] = touch_count.get(qubit, 0) + 1
        assert set(touch_count.values()) <= {1, 2}

    def test_bulk_ancillas_have_no_boundary_qubits_at_larger_distance(self, code_d7):
        for stype in StabilizerType:
            for ancilla in code_d7.ancillas(stype):
                if ancilla.num_clique_neighbors == 4:
                    assert not ancilla.boundary_qubits


class TestLogicalOperators:
    def test_logical_supports_have_weight_d(self, code):
        for stype in StabilizerType:
            assert len(code.logical_support(stype)) == code.distance

    def test_logical_operators_anticommute(self, code):
        overlap = code.logical_support(StabilizerType.X) & code.logical_support(
            StabilizerType.Z
        )
        assert len(overlap) % 2 == 1

    def test_logical_operators_commute_with_stabilizers(self, code):
        # Logical X (a column of X ops) must overlap every Z check evenly, and
        # logical Z (a row of Z ops) must overlap every X check evenly.
        logical_x = code.logical_support(StabilizerType.X)
        for stabilizer in code.stabilizers(StabilizerType.Z):
            assert len(logical_x & set(stabilizer.data_qubits)) % 2 == 0
        logical_z = code.logical_support(StabilizerType.Z)
        for stabilizer in code.stabilizers(StabilizerType.X):
            assert len(logical_z & set(stabilizer.data_qubits)) % 2 == 0

    def test_logical_z_has_zero_x_syndrome(self, code):
        syndrome = code.syndrome_of(code.logical_support(StabilizerType.Z), StabilizerType.X)
        assert not syndrome.any()

    def test_logical_operator_is_a_logical_error(self, code):
        assert code.is_logical_error(
            code.logical_support(StabilizerType.Z), StabilizerType.X
        )
        assert code.is_logical_error(
            code.logical_support(StabilizerType.X), StabilizerType.Z
        )

    def test_stabilizer_is_not_a_logical_error(self, code, stype):
        # A single stabilizer of the opposite type has zero syndrome and must
        # not be flagged as a logical error.
        opposite = stype.opposite
        stabilizer = code.stabilizers(opposite)[0]
        error = frozenset(stabilizer.data_qubits)
        assert not code.syndrome_of(error, stype).any()
        assert not code.is_logical_error(error, stype)


class TestSyndromes:
    def test_empty_error_has_zero_syndrome(self, code, stype):
        assert not code.syndrome_of(frozenset(), stype).any()

    def test_single_bulk_error_flips_two_ancillas(self, code_d5):
        centre = Coord(4, 4)
        syndrome = code_d5.syndrome_of({centre}, StabilizerType.X)
        assert syndrome.sum() == 2

    def test_syndrome_is_linear(self, code, stype, rng):
        qubits = list(code.data_qubits)
        a = {q for q in qubits if rng.random() < 0.2}
        b = {q for q in qubits if rng.random() < 0.2}
        combined = frozenset(a) ^ frozenset(b)
        expected = (code.syndrome_of(a, stype) + code.syndrome_of(b, stype)) % 2
        assert np.array_equal(code.syndrome_of(combined, stype), expected)

    def test_ancilla_lookup_by_coordinate(self, code, stype):
        for ancilla in code.ancillas(stype):
            assert code.ancilla(stype, ancilla.coord) is ancilla
