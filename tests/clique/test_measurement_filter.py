"""Tests for the measurement-error persistence filter (Fig. 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique.measurement_filter import PersistenceFilter, check_measurement_rounds
from repro.exceptions import ConfigurationError


def _matrix(rows: list[list[int]]) -> np.ndarray:
    return np.array(rows, dtype=np.uint8)


class TestConstruction:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            PersistenceFilter(0)

    def test_default_is_two_rounds(self):
        assert PersistenceFilter().rounds == 2

    @pytest.mark.parametrize("rounds", [True, False, 2.5, 2.0, "2", None, -1])
    def test_rejects_non_integral_or_bool_rounds(self, rounds):
        with pytest.raises(ConfigurationError):
            check_measurement_rounds(rounds)
        with pytest.raises(ConfigurationError):
            PersistenceFilter(rounds)

    def test_numpy_integers_are_accepted(self):
        check_measurement_rounds(np.int64(3))
        assert PersistenceFilter(np.int64(3)).rounds == 3


class TestSplit:
    def test_single_round_filter_passes_everything(self):
        filter_ = PersistenceFilter(1)
        matrix = _matrix([[1, 0, 1]])
        sticky, transient = filter_.split(matrix, 0)
        assert sticky.tolist() == [1, 0, 1]
        assert not transient.any()

    def test_persistent_detection_is_sticky(self):
        # A data error fires at round 0 and the ancilla stays quiet afterwards.
        filter_ = PersistenceFilter(2)
        matrix = _matrix([[1, 0], [0, 0]])
        sticky, transient = filter_.split(matrix, 0)
        assert sticky.tolist() == [1, 0]
        assert not transient.any()

    def test_repeated_flip_is_transient(self):
        # A measurement error fires at rounds 0 and 1 on the same ancilla.
        filter_ = PersistenceFilter(2)
        matrix = _matrix([[1, 0], [1, 0]])
        sticky, transient = filter_.split(matrix, 0)
        assert not sticky.any()
        assert transient.tolist() == [1, 0]

    def test_last_round_has_no_lookahead(self):
        filter_ = PersistenceFilter(2)
        matrix = _matrix([[0, 0], [1, 1]])
        sticky, transient = filter_.split(matrix, 1)
        assert sticky.tolist() == [1, 1]
        assert not transient.any()

    def test_three_round_window_looks_two_rounds_ahead(self):
        filter_ = PersistenceFilter(3)
        matrix = _matrix([[1, 1], [0, 0], [1, 0]])
        sticky, transient = filter_.split(matrix, 0)
        # Ancilla 0 flips again within the window -> transient; ancilla 1 does not.
        assert sticky.tolist() == [0, 1]
        assert transient.tolist() == [1, 0]

    def test_round_index_bounds_checked(self):
        filter_ = PersistenceFilter(2)
        with pytest.raises(IndexError):
            filter_.split(_matrix([[0, 0]]), 3)

    def test_split_partition_of_row(self):
        filter_ = PersistenceFilter(2)
        matrix = _matrix([[1, 1, 0, 1], [1, 0, 0, 1]])
        sticky, transient = filter_.split(matrix, 0)
        assert np.array_equal(sticky | transient, matrix[0])
        assert not (sticky & transient).any()


class TestTransientPartnerMask:
    def test_partner_is_first_repeat(self):
        filter_ = PersistenceFilter(3)
        matrix = _matrix([[1, 0], [0, 0], [1, 0]])
        sticky, transient = filter_.split(matrix, 0)
        mask = filter_.transient_partner_mask(matrix, 0, transient)
        assert mask[2, 0] == 1
        assert mask.sum() == 1

    def test_no_transients_gives_empty_mask(self):
        filter_ = PersistenceFilter(2)
        matrix = _matrix([[1, 0], [0, 0]])
        mask = filter_.transient_partner_mask(matrix, 0, np.zeros(2, dtype=np.uint8))
        assert not mask.any()
