"""Tests for the vector-to-coordinates conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.noise.events import vector_to_errors


class TestVectorToErrors:
    def test_set_entries_become_coordinates(self, code_d3):
        ordering = code_d3.data_qubits
        vector = np.zeros(len(ordering), dtype=np.uint8)
        vector[[0, 4, 8]] = 1
        assert vector_to_errors(vector, ordering) == frozenset(
            {ordering[0], ordering[4], ordering[8]}
        )

    def test_zero_vector_gives_empty_set(self, code_d3):
        vector = np.zeros(code_d3.num_data_qubits, dtype=np.uint8)
        assert vector_to_errors(vector, code_d3.data_qubits) == frozenset()

    def test_rejects_length_mismatch(self, code_d3):
        with pytest.raises(ValueError):
            vector_to_errors(np.zeros(3, dtype=np.uint8), code_d3.data_qubits)
