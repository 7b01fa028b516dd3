"""Tests for the MWPM baseline decoder."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from lookup_oracle import LookupDecoder
from subset_dp_oracle import match_events_small

from repro.decoders.mwpm import ENUMERATION_MAX_EVENTS, MWPMDecoder
from repro.exceptions import SyndromeShapeError
from repro.noise.events import vector_to_errors
from repro.types import Coord, StabilizerType


@pytest.fixture(scope="module")
def mwpm_d5():
    from repro.codes.rotated_surface import get_code

    return MWPMDecoder(get_code(5), StabilizerType.X)


class TestSingleRoundDecoding:
    def test_empty_syndrome_gives_empty_correction(self, mwpm_d5, code_d5):
        result = mwpm_d5.decode(np.zeros(code_d5.num_ancillas_of_type(StabilizerType.X)))
        assert result.correction == frozenset()
        assert result.handled

    def test_rejects_wrong_width(self, mwpm_d5):
        with pytest.raises(SyndromeShapeError):
            mwpm_d5.decode(np.zeros(3, dtype=np.uint8))

    @pytest.mark.parametrize("qubit_index", range(0, 25, 3))
    def test_single_error_correction_cancels_syndrome(self, mwpm_d5, code_d5, qubit_index):
        error = {code_d5.data_qubits[qubit_index]}
        syndrome = code_d5.syndrome_of(error, StabilizerType.X)
        result = mwpm_d5.decode(syndrome)
        residual = frozenset(error) ^ result.correction
        assert not code_d5.syndrome_of(residual, StabilizerType.X).any()
        assert not code_d5.is_logical_error(residual, StabilizerType.X)

    def test_correction_has_zero_residual_for_random_errors(self, mwpm_d5, code_d5, rng):
        for _ in range(25):
            error = {q for q in code_d5.data_qubits if rng.random() < 0.08}
            syndrome = code_d5.syndrome_of(error, StabilizerType.X)
            result = mwpm_d5.decode(syndrome)
            residual = frozenset(error) ^ result.correction
            assert not code_d5.syndrome_of(residual, StabilizerType.X).any()

    def test_matches_lookup_decoder_weight_on_small_code(self, code_d3):
        # MWPM must find a minimum-weight explanation for every weight-1 and
        # weight-2 error pattern on the d=3 code (code capacity): all 9 + 36
        # patterns, for both stabilizer types.
        patterns = [
            set(pattern)
            for weight in (1, 2)
            for pattern in combinations(code_d3.data_qubits, weight)
        ]
        assert len(patterns) == 45
        for stype in StabilizerType:
            lookup = LookupDecoder(code_d3, stype)
            mwpm = MWPMDecoder(code_d3, stype)
            for error in patterns:
                syndrome = code_d3.syndrome_of(error, stype)
                optimal = lookup.decode(syndrome).correction
                matched = mwpm.decode(syndrome).correction
                assert len(matched) == len(optimal), (stype, error)
                assert not code_d3.syndrome_of(error ^ matched, stype).any()

    def test_metadata_reports_event_counts(self, mwpm_d5, code_d5):
        error = {code_d5.data_qubits[6], code_d5.data_qubits[18]}
        syndrome = code_d5.syndrome_of(error, StabilizerType.X)
        result = mwpm_d5.decode(syndrome)
        assert result.metadata["num_events"] == int(syndrome.sum())


class TestSpaceTimeDecoding:
    def test_measurement_error_pair_needs_no_data_correction(self, mwpm_d5, code_d5):
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        detections = np.zeros((3, width), dtype=np.uint8)
        detections[0, 4] = 1
        detections[1, 4] = 1
        result = mwpm_d5.decode(detections)
        assert result.correction == frozenset()

    def test_data_error_in_one_round_is_corrected(self, mwpm_d5, code_d5):
        error = {Coord(4, 4)}
        syndrome = code_d5.syndrome_of(error, StabilizerType.X)
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        detections = np.zeros((3, width), dtype=np.uint8)
        detections[1] = syndrome
        result = mwpm_d5.decode(detections)
        residual = frozenset(error) ^ result.correction
        assert not code_d5.syndrome_of(residual, StabilizerType.X).any()
        assert not code_d5.is_logical_error(residual, StabilizerType.X)

    def test_full_memory_history_has_zero_residual_syndrome(self, code_d5, rng):
        from repro.noise.models import PhenomenologicalNoise
        from repro.syndrome.history import SyndromeHistory

        noise = PhenomenologicalNoise(0.03)
        decoder = MWPMDecoder(code_d5, StabilizerType.X)
        parity = code_d5.parity_check(StabilizerType.X)
        for _ in range(10):
            history = SyndromeHistory(code_d5.num_ancillas_of_type(StabilizerType.X))
            accumulated = np.zeros(code_d5.num_data_qubits, dtype=np.uint8)
            for _round in range(5):
                accumulated ^= noise.sample_data_vector(code_d5, rng)
                flips = noise.sample_measurement_vector(code_d5, StabilizerType.X, rng)
                history.record(((parity @ accumulated) % 2) ^ flips)
            history.record((parity @ accumulated) % 2)
            result = decoder.decode(history.detection_matrix())
            correction = np.zeros_like(accumulated)
            correction[[code_d5.data_index[q] for q in result.correction]] = 1
            residual = accumulated ^ correction
            residual_set = vector_to_errors(residual, code_d5.data_qubits)
            assert not code_d5.syndrome_of(residual_set, StabilizerType.X).any()


class TestSmallCaseSolver:
    def test_subset_dp_matches_blossom_weight(self, mwpm_d5, code_d5, rng):
        # The subset-DP oracle (which the small-window enumeration matches
        # assignment for assignment) must find the same minimum total
        # distance as blossom for every event count the enumeration handles.
        graph = mwpm_d5.matching_graph
        width = code_d5.num_ancillas_of_type(StabilizerType.X)

        def total_weight(distance, boundary, pairs, boundary_matches):
            return sum(distance[i][j] for i, j in pairs) + sum(
                boundary[i] for i in boundary_matches
            )

        for _ in range(60):
            num = int(rng.integers(1, ENUMERATION_MAX_EVENTS + 1))
            cells = np.sort(rng.choice(5 * width, size=num, replace=False))
            ancilla = cells % width
            rounds = cells // width
            distance = (
                graph.spatial_distance_matrix[np.ix_(ancilla, ancilla)]
                + np.abs(rounds[:, None] - rounds[None, :])
            ).tolist()
            boundary = graph.boundary_distance_array[ancilla].tolist()
            dp_weight = total_weight(
                distance, boundary, *match_events_small(distance, boundary)
            )
            blossom_weight = total_weight(
                distance, boundary, *mwpm_d5._match_large(ancilla, rounds)
            )
            assert dp_weight == blossom_weight

    def test_all_zero_distance_tie_breaks_deterministically(self):
        # Pathological degenerate input: every pair and boundary assignment
        # ties at zero weight.  The DP must pick one canonical assignment
        # (everything to the boundary) so sharded and unsharded runs can
        # never diverge on equal-weight choices.
        for num in (1, 2, 3, 5):
            distance = [[0] * num for _ in range(num)]
            boundary = [0] * num
            pairs, boundary_matches = match_events_small(distance, boundary)
            assert pairs == []
            assert sorted(boundary_matches) == list(range(num))
            # Repeated calls agree exactly.
            assert (pairs, boundary_matches) == match_events_small(distance, boundary)


class TestNetworkxOracle:
    def test_networkx_oracle_agrees_with_blossom_weight(self, code_d5, rng):
        pytest.importorskip("networkx")
        from networkx_oracle import NetworkxMWPMDecoder

        blossom_decoder = MWPMDecoder(code_d5, StabilizerType.X)
        oracle = NetworkxMWPMDecoder(code_d5, StabilizerType.X)
        graph = blossom_decoder.matching_graph
        # Both decoders read the one cached graph of (distance, stype).
        assert oracle.matching_graph is graph
        width = code_d5.num_ancillas_of_type(StabilizerType.X)

        def total_weight(ancillas, rounds, pairs, boundary_matches):
            weight = 0
            for i, j in pairs:
                weight += int(
                    graph.spatial_distance_matrix[ancillas[i], ancillas[j]]
                ) + abs(int(rounds[i]) - int(rounds[j]))
            for i in boundary_matches:
                weight += int(graph.boundary_distance_array[ancillas[i]])
            return weight

        checked_large = 0
        for _ in range(30):
            detections = (rng.random((6, width)) < 0.25).astype(np.uint8)
            rounds, ancillas = np.nonzero(detections)
            ancillas = ancillas.astype(np.int64)
            rounds = rounds.astype(np.int64)
            if rounds.size <= ENUMERATION_MAX_EVENTS:
                continue
            checked_large += 1
            ours = blossom_decoder._match_large(ancillas, rounds)
            theirs = oracle._match_large(ancillas, rounds)
            assert total_weight(ancillas, rounds, *ours) == total_weight(
                ancillas, rounds, *theirs
            )
        assert checked_large >= 10


class TestLogicalPerformance:
    def test_higher_distance_suppresses_code_capacity_errors(self):
        # Under code-capacity noise (perfect measurements, single round) the
        # MWPM threshold is around 10%, so at p = 5% a d=5 code must clearly
        # outperform a d=3 code.
        from repro.codes.rotated_surface import get_code
        from repro.noise.models import CodeCapacityNoise
        from repro.simulation.memory import run_memory_experiment

        noise = CodeCapacityNoise(0.03)
        results = {}
        for distance in (3, 5):
            results[distance] = run_memory_experiment(
                get_code(distance),
                noise,
                lambda code, stype: MWPMDecoder(code, stype),
                trials=1500,
                rounds=1,
                rng=99,
            ).logical_error_rate
        assert results[5] < results[3]

    def test_logical_error_rate_increases_with_physical_rate(self):
        from repro.codes.rotated_surface import get_code
        from repro.noise.models import PhenomenologicalNoise
        from repro.simulation.memory import run_memory_experiment

        code = get_code(3)
        rates = []
        for p in (0.005, 0.03):
            rates.append(
                run_memory_experiment(
                    code,
                    PhenomenologicalNoise(p),
                    lambda c, s: MWPMDecoder(c, s),
                    trials=400,
                    rng=7,
                ).logical_error_rate
            )
        assert rates[0] < rates[1]


class TestEventBitmapPath:
    def test_bitmap_matches_decode(self, mwpm_d5, code_d5, rng):
        width = code_d5.num_ancillas_of_type(StabilizerType.X)
        data_index = code_d5.data_index
        # Densities chosen so event counts land both under and over the
        # enumeration limit, covering the enumeration and blossom branches.
        for density in (0.05, 0.25):
            detections = (rng.random((5, width)) < density).astype(np.uint8)
            rounds, ancillas = np.nonzero(detections)
            bitmap = mwpm_d5.decode_events_bitmap(rounds, ancillas)
            expected = np.zeros(code_d5.num_data_qubits, dtype=np.uint8)
            for qubit in mwpm_d5.decode(detections).correction:
                expected[data_index[qubit]] ^= 1
            assert np.array_equal(bitmap, expected)

    def test_empty_events_give_zero_bitmap(self, mwpm_d5, code_d5):
        bitmap = mwpm_d5.decode_events_bitmap(np.array([]), np.array([]))
        assert bitmap.shape == (code_d5.num_data_qubits,)
        assert not bitmap.any()
