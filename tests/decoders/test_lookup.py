"""Tests for the exhaustive lookup-table decoder oracle."""

from __future__ import annotations

import numpy as np
import pytest
from lookup_oracle import LookupDecoder

from repro.exceptions import ConfigurationError, DecodingError
from repro.types import StabilizerType


@pytest.fixture(scope="module")
def lookup_d3():
    from repro.codes.rotated_surface import get_code

    return LookupDecoder(get_code(3), StabilizerType.X)


class TestConstruction:
    def test_rejects_large_distances(self, code_d7):
        with pytest.raises(ConfigurationError):
            LookupDecoder(code_d7, StabilizerType.X)

    def test_table_covers_every_syndrome(self, lookup_d3, code_d3):
        expected = 2 ** code_d3.num_ancillas_of_type(StabilizerType.X)
        assert lookup_d3.table_size == expected


class TestDecoding:
    def test_zero_syndrome_zero_correction(self, lookup_d3, code_d3):
        width = code_d3.num_ancillas_of_type(StabilizerType.X)
        assert lookup_d3.decode(np.zeros(width, dtype=np.uint8)).correction == frozenset()

    def test_corrections_always_cancel_the_syndrome(self, lookup_d3, code_d3):
        width = code_d3.num_ancillas_of_type(StabilizerType.X)
        for pattern in range(2**width):
            syndrome = np.array(
                [(pattern >> bit) & 1 for bit in range(width)], dtype=np.uint8
            )
            correction = lookup_d3.decode(syndrome).correction
            assert np.array_equal(
                code_d3.syndrome_of(correction, StabilizerType.X), syndrome
            )

    def test_single_errors_are_corrected_exactly(self, lookup_d3, code_d3):
        for qubit in code_d3.data_qubits:
            syndrome = code_d3.syndrome_of({qubit}, StabilizerType.X)
            correction = lookup_d3.decode(syndrome).correction
            residual = {qubit} ^ set(correction)
            assert not code_d3.syndrome_of(residual, StabilizerType.X).any()
            assert not code_d3.is_logical_error(residual, StabilizerType.X)

    def test_corrections_are_minimum_weight(self, lookup_d3, code_d3):
        # No other error pattern of strictly smaller weight may produce the
        # same syndrome (spot-checked on all weight-2 patterns).
        from itertools import combinations

        for pair in combinations(code_d3.data_qubits, 2):
            syndrome = code_d3.syndrome_of(set(pair), StabilizerType.X)
            correction = lookup_d3.decode(syndrome).correction
            assert len(correction) <= 2

    def test_rejects_multiround_input(self, lookup_d3, code_d3):
        width = code_d3.num_ancillas_of_type(StabilizerType.X)
        with pytest.raises(DecodingError):
            lookup_d3.decode(np.zeros((2, width), dtype=np.uint8))

    def test_metadata_reports_weight(self, lookup_d3, code_d3):
        syndrome = code_d3.syndrome_of({code_d3.data_qubits[4]}, StabilizerType.X)
        result = lookup_d3.decode(syndrome)
        assert result.metadata["correction_weight"] == len(result.correction)
