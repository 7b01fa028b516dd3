"""Tests for the Clique decoder decision logic and corrections (Figs. 5-8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cliques import build_cliques
from repro.clique.decoder import CliqueDecoder, clique_rule, get_clique_decoder
from repro.codes.rotated_surface import get_code
from repro.types import Coord, StabilizerType


class TestCliqueRule:
    def test_inactive_clique_never_complex(self):
        assert not clique_rule(False, 0, False)
        assert not clique_rule(False, 2, True)

    @pytest.mark.parametrize("count", [1, 3])
    def test_odd_neighbor_count_is_trivial(self, count):
        assert not clique_rule(True, count, False)
        assert not clique_rule(True, count, True)

    @pytest.mark.parametrize("count", [2, 4])
    def test_even_nonzero_count_is_complex(self, count):
        assert clique_rule(True, count, False)
        assert clique_rule(True, count, True)

    def test_isolated_bulk_ancilla_is_complex(self):
        # Fig. 8(d): a lone active ancilla in the bulk cannot be explained by
        # a single data error and must go off-chip.
        assert clique_rule(True, 0, False)

    def test_isolated_boundary_ancilla_is_trivial(self):
        # Fig. 5 special cases: a boundary data error explains it locally.
        assert not clique_rule(True, 0, True)


@pytest.fixture(scope="module")
def clique_d7():
    from repro.codes.rotated_surface import get_code

    return CliqueDecoder(get_code(7), StabilizerType.X)


class TestSingleErrorDecoding:
    def test_every_single_data_error_is_trivially_corrected(self, code, stype):
        decoder = CliqueDecoder(code, stype)
        for qubit in code.data_qubits:
            syndrome = code.syndrome_of({qubit}, stype)
            decision = decoder.decide(syndrome)
            assert decision.is_trivial
            residual = {qubit} ^ set(decision.correction)
            assert not code.syndrome_of(residual, stype).any()
            assert not code.is_logical_error(residual, stype)

    def test_bulk_single_error_corrected_exactly(self, code_d7):
        error = Coord(6, 6)
        decoder = CliqueDecoder(code_d7, StabilizerType.X)
        decision = decoder.decide(code_d7.syndrome_of({error}, StabilizerType.X))
        assert decision.correction == frozenset({error})

    def test_boundary_single_error_corrected_equivalently(self, code_d7):
        # Correcting a different boundary qubit of the same clique is allowed
        # (the two differ by a stabilizer); the residual must be harmless.
        decoder = CliqueDecoder(code_d7, StabilizerType.X)
        ancilla = next(
            a for a in code_d7.ancillas(StabilizerType.X) if len(a.boundary_qubits) >= 2
        )
        error = ancilla.boundary_qubits[-1]
        decision = decoder.decide(code_d7.syndrome_of({error}, StabilizerType.X))
        assert decision.is_trivial
        residual = {error} ^ set(decision.correction)
        assert not code_d7.syndrome_of(residual, StabilizerType.X).any()
        assert not code_d7.is_logical_error(residual, StabilizerType.X)


class TestMultipleIsolatedErrors:
    def test_two_distant_errors_both_corrected(self, code_d7):
        decoder = CliqueDecoder(code_d7, StabilizerType.X)
        errors = {Coord(0, 0), Coord(12, 12)}
        decision = decoder.decide(code_d7.syndrome_of(errors, StabilizerType.X))
        assert decision.is_trivial
        residual = errors ^ set(decision.correction)
        assert not code_d7.syndrome_of(residual, StabilizerType.X).any()

    def test_fig8a_two_paired_errors_match_complex_decoder(self, code_d7):
        # Fig. 8(a): two separate single data errors, each flipping a pair of
        # ancillas; Clique applies exactly the same fix MWPM would.
        from repro.decoders.mwpm import MWPMDecoder

        decoder = CliqueDecoder(code_d7, StabilizerType.X)
        mwpm = MWPMDecoder(code_d7, StabilizerType.X)
        errors = {Coord(2, 6), Coord(10, 4)}
        syndrome = code_d7.syndrome_of(errors, StabilizerType.X)
        decision = decoder.decide(syndrome)
        assert decision.is_trivial
        assert decision.correction == mwpm.decode(syndrome).correction == frozenset(errors)


class TestComplexDetection:
    def test_all_zero_signature_is_trivial_with_no_correction(self, clique_d7, code_d7):
        decision = clique_d7.decide(
            np.zeros(code_d7.num_ancillas_of_type(StabilizerType.X), dtype=np.uint8)
        )
        assert decision.is_trivial
        assert decision.is_all_zeros
        assert decision.correction == frozenset()

    def test_chain_of_two_adjacent_errors_is_complex(self, code_d7):
        # Two data errors sharing an ancilla: the shared ancilla sees both
        # neighbours... the middle ancilla stays quiet but the two endpoints
        # each see zero active leaves, so the signature must go off-chip.
        decoder = CliqueDecoder(code_d7, StabilizerType.X)
        ancilla = next(
            a
            for a in code_d7.ancillas(StabilizerType.X)
            if a.num_clique_neighbors == 4
        )
        errors = set(ancilla.shared_qubits[:2])
        decision = decoder.decide(code_d7.syndrome_of(errors, StabilizerType.X))
        assert not decision.is_trivial
        assert decision.complex_cliques

    def test_fig8c_chain_between_standalone_ancillas_is_complex(self, code_d7):
        # Fig. 8(c): a longer chain whose interior syndrome flips cancel,
        # leaving two distant standalone active ancillas.
        decoder = CliqueDecoder(code_d7, StabilizerType.X)
        chain = {Coord(4, 2), Coord(4, 4), Coord(4, 6), Coord(4, 8)}
        syndrome = code_d7.syndrome_of(chain, StabilizerType.X)
        assert syndrome.sum() == 2
        decision = decoder.decide(syndrome)
        assert not decision.is_trivial

    def test_fig8d_isolated_bulk_flip_is_complex(self, clique_d7, code_d7):
        # Fig. 8(d): a persistent measurement error looks like a lone active
        # bulk ancilla and must be handed to the complex decoder.
        bulk = next(
            a
            for a in code_d7.ancillas(StabilizerType.X)
            if not a.boundary_qubits
        )
        signature = np.zeros(code_d7.num_ancillas_of_type(StabilizerType.X), dtype=np.uint8)
        signature[bulk.index] = 1
        decision = clique_d7.decide(signature)
        assert not decision.is_trivial
        assert decision.complex_cliques == (bulk.coord,)

    def test_isolated_boundary_flip_is_trivial(self, clique_d7, code_d7):
        boundary = next(
            a for a in code_d7.ancillas(StabilizerType.X) if a.boundary_qubits
        )
        signature = np.zeros(code_d7.num_ancillas_of_type(StabilizerType.X), dtype=np.uint8)
        signature[boundary.index] = 1
        decision = clique_d7.decide(signature)
        assert decision.is_trivial
        assert decision.correction == frozenset({boundary.boundary_qubits[0]})


class TestTrivialCorrectionsCancelSignature:
    def test_correction_syndrome_equals_signature_for_random_trivial_cases(
        self, code_d7, rng
    ):
        decoder = CliqueDecoder(code_d7, StabilizerType.X)
        checked = 0
        for _ in range(300):
            errors = {q for q in code_d7.data_qubits if rng.random() < 0.01}
            syndrome = code_d7.syndrome_of(errors, StabilizerType.X)
            decision = decoder.decide(syndrome)
            if not decision.is_trivial:
                continue
            checked += 1
            assert np.array_equal(
                code_d7.syndrome_of(decision.correction, StabilizerType.X), syndrome
            )
        assert checked > 50


class TestBatchInterface:
    def test_batch_matches_single_decisions(self, code_d5, rng):
        decoder = CliqueDecoder(code_d5, StabilizerType.X)
        signatures = (
            rng.random((200, code_d5.num_ancillas_of_type(StabilizerType.X))) < 0.08
        ).astype(np.uint8)
        batch = decoder.is_trivial_batch(signatures)
        for row, expected in zip(signatures, batch):
            assert decoder.decide(row).is_trivial == bool(expected)

    def test_complex_mask_is_subset_of_active(self, code_d5, rng):
        decoder = CliqueDecoder(code_d5, StabilizerType.X)
        signatures = (
            rng.random((100, code_d5.num_ancillas_of_type(StabilizerType.X))) < 0.1
        ).astype(np.uint8)
        mask = decoder.complex_mask(signatures)
        assert not (mask & ~signatures.astype(bool)).any()


class TestDecoderInterface:
    def test_decode_single_round_reports_handled_flag(self, clique_d7, code_d7):
        errors = {Coord(6, 6)}
        result = clique_d7.decode(code_d7.syndrome_of(errors, StabilizerType.X))
        assert result.handled
        assert result.correction == frozenset(errors)

    def test_decode_rejects_multiround_input(self, clique_d7, code_d7):
        width = code_d7.num_ancillas_of_type(StabilizerType.X)
        with pytest.raises(ValueError):
            clique_d7.decode(np.zeros((2, width), dtype=np.uint8))

    def test_unhandled_complex_signature(self, clique_d7, code_d7):
        chain = {Coord(4, 2), Coord(4, 4), Coord(4, 6), Coord(4, 8)}
        result = clique_d7.decode(code_d7.syndrome_of(chain, StabilizerType.X))
        assert not result.handled
        assert result.correction == frozenset()


class TestPairFormTables:
    """The correction ROM is stored in pair form, which is only exact if every
    corrected data qubit has exactly one term; the three assembly paths
    (packed, bitmap, per-signature) must then agree bit for bit."""

    @pytest.mark.parametrize("distance", range(3, 33, 2))
    def test_each_corrected_qubit_has_exactly_one_term(self, distance, stype):
        terms: dict = {}
        for clique in build_cliques(get_code(distance), stype):
            for leaf, shared in zip(clique.neighbor_indices, clique.shared_qubits):
                pair = tuple(sorted((clique.ancilla_index, leaf)))
                terms.setdefault(shared, set()).add(("pair", pair))
            if clique.boundary_qubits:
                terms.setdefault(clique.boundary_qubits[0], set()).add(
                    ("boundary", clique.ancilla_index)
                )
        # Each shared qubit is named by both cliques of its one pair, and no
        # first boundary qubit is shared or owned twice.
        assert all(len(owners) == 1 for owners in terms.values())

    @pytest.mark.parametrize("distance,trials", [(3, 64), (5, 130), (9, 77)])
    def test_packed_equals_bitmap_equals_decide_on_trivial_rows(
        self, distance, trials, stype
    ):
        code = get_code(distance)
        decoder = get_clique_decoder(distance, stype)
        rng = np.random.default_rng(distance)
        errors = (rng.random((4 * trials, code.num_data_qubits)) < 0.03).astype(np.int64)
        signatures = ((errors @ code.parity_check(stype).T) & 1).astype(np.uint8)
        trivial = signatures[decoder.is_trivial_batch(signatures)][:trials]
        assert trivial.shape[0] == trials and trivial.any()

        bitmap = decoder.correction_bitmap(trivial)
        planes = decoder.correction_planes_packed(bitplane.pack_trials(trivial))
        assert np.array_equal(planes, bitplane.pack_trials(bitmap))
        data_index = code.data_index
        for row, expected in zip(trivial, bitmap):
            reference = np.zeros(code.num_data_qubits, dtype=np.uint8)
            for qubit in decoder.decide(row).correction:
                reference[data_index[qubit]] = 1
            assert np.array_equal(expected, reference)

    def test_decoders_are_cached_per_distance_and_type(self):
        decoder = get_clique_decoder(5, StabilizerType.X)
        assert get_clique_decoder(5, StabilizerType.X) is decoder
        assert get_clique_decoder(5, StabilizerType.Z) is not decoder
        assert decoder.code is get_code(5)

    def test_cached_tables_are_read_only_and_unchanged_by_decoding(self):
        decoder = get_clique_decoder(7, StabilizerType.X)
        tables = {
            name: value.copy()
            for name, value in vars(decoder).items()
            if isinstance(value, np.ndarray)
        }
        assert tables and not any(
            getattr(decoder, name).flags.writeable for name in tables
        )
        rng = np.random.default_rng(3)
        signatures = (rng.random((200, len(decoder.cliques))) < 0.1).astype(np.uint8)
        packed = bitplane.pack_trials(signatures)
        decoder.complex_mask(signatures)
        decoder.correction_bitmap(signatures)
        decoder.complex_any_packed(packed)
        decoder.correction_planes_packed(packed)
        decoder.decide(signatures[0])
        for name, value in tables.items():
            assert np.array_equal(getattr(decoder, name), value)
