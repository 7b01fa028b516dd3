"""Property-based tests for the off-chip decoder and the Clique+MWPM cascade."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.types import StabilizerType

TYPES = st.sampled_from([StabilizerType.X, StabilizerType.Z])


@st.composite
def error_configuration(draw):
    distance = draw(st.sampled_from([3, 5]))
    code = get_code(distance)
    rate = draw(st.sampled_from([0.02, 0.05, 0.1]))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=code.num_data_qubits,
            max_size=code.num_data_qubits,
        )
    )
    error = frozenset(q for q, v in zip(code.data_qubits, values) if v < rate)
    return code, error


class TestMWPMProperties:
    @given(config=error_configuration(), stype=TYPES)
    @settings(max_examples=50, deadline=None)
    def test_correction_always_cancels_the_syndrome(self, config, stype):
        code, error = config
        decoder = MWPMDecoder(code, stype)
        syndrome = code.syndrome_of(error, stype)
        correction = decoder.decode(syndrome).correction
        residual = error ^ correction
        assert not code.syndrome_of(residual, stype).any()

    @given(config=error_configuration(), stype=TYPES)
    @settings(max_examples=50, deadline=None)
    def test_correction_weight_never_exceeds_error_weight(self, config, stype):
        # MWPM picks a minimum-weight explanation, and the injected error is
        # one valid explanation, so the correction can never be heavier.
        code, error = config
        decoder = MWPMDecoder(code, stype)
        syndrome = code.syndrome_of(error, stype)
        correction = decoder.decode(syndrome).correction
        assert len(correction) <= len(error)

    @given(config=error_configuration(), stype=TYPES)
    @settings(max_examples=30, deadline=None)
    def test_decoding_is_deterministic(self, config, stype):
        code, error = config
        decoder = MWPMDecoder(code, stype)
        syndrome = code.syndrome_of(error, stype)
        assert decoder.decode(syndrome).correction == decoder.decode(syndrome).correction

    @given(config=error_configuration(), stype=TYPES, rounds=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_round_placement_does_not_change_the_correction(self, config, stype, rounds):
        # With no temporal events, the same spatial syndrome decoded in any
        # round of an otherwise-quiet history gives the same correction.
        code, error = config
        decoder = MWPMDecoder(code, stype)
        syndrome = code.syndrome_of(error, stype)
        single = decoder.decode(syndrome).correction
        width = code.num_ancillas_of_type(stype)
        history = np.zeros((rounds, width), dtype=np.uint8)
        history[rounds - 1] = syndrome
        assert decoder.decode(history).correction == single


class TestCascadeProperties:
    @given(config=error_configuration(), stype=TYPES)
    @settings(max_examples=50, deadline=None)
    def test_correction_always_cancels_the_syndrome(self, config, stype):
        # Trivial rounds are corrected on-chip, complex ones by MWPM; either
        # way a one-round syndrome is cleared.
        code, error = config
        decoder = DecoderCascade(code, stype)
        syndrome = code.syndrome_of(error, stype)
        correction = decoder.decode(syndrome).correction
        residual = error ^ correction
        assert not code.syndrome_of(residual, stype).any()

    @given(distance=st.sampled_from([3, 5]), stype=TYPES, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_mwpm_on_single_errors(self, distance, stype, data):
        code = get_code(distance)
        qubit = data.draw(st.sampled_from(code.data_qubits))
        syndrome = code.syndrome_of({qubit}, stype)
        cascade = DecoderCascade(code, stype).decode(syndrome).correction
        mwpm = MWPMDecoder(code, stype).decode(syndrome).correction
        residual = cascade ^ mwpm
        assert not code.syndrome_of(residual, stype).any()
        assert not code.is_logical_error(residual, stype)
