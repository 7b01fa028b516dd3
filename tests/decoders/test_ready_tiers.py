"""The off-chip tier contract, checked on every tier the cascade can hold.

A cascade hands its off-chip tier a batch of event windows through
:meth:`~repro.decoders.base.Decoder.decode_event_windows`.  MWPM overrides it
and solves the windows together; a ready tier without an override reaches it
through the base class's per-window loop, by the ``decode_events_bitmap``
hook or by ``decode`` on each window's detection mask (``offchip_tiers.py``
wraps MWPM behind each branch).  Every tier must decode each window exactly
as its own ``decode`` does, keep empty windows empty, and correct what a
distance-5 code must.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.rotated_surface import get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.types import StabilizerType

from offchip_tiers import READY_TIERS

TIERS = {"mwpm": MWPMDecoder, **READY_TIERS}
X = StabilizerType.X


@pytest.fixture(params=sorted(TIERS))
def tier(request):
    return TIERS[request.param](get_code(5), X)


def _windows(matrices):
    """Flat ``(rounds, ancillas, bounds)`` of detection matrices, row-major."""
    rounds, ancillas, bounds = [], [], [0]
    for matrix in matrices:
        window_rounds, window_ancillas = np.nonzero(matrix)
        rounds.extend(window_rounds.tolist())
        ancillas.extend(window_ancillas.tolist())
        bounds.append(len(rounds))
    return (
        np.array(rounds, dtype=np.int64),
        np.array(ancillas, dtype=np.int64),
        np.array(bounds, dtype=np.int64),
    )


def _bitmap(code, correction):
    bitmap = np.zeros(code.num_data_qubits, dtype=np.uint8)
    for qubit in correction:
        bitmap[code.data_index[qubit]] ^= 1
    return bitmap


def _random_matrices(code, count, seed):
    rng = np.random.default_rng(seed)
    width = code.num_ancillas_of_type(X)
    return [
        (rng.random((int(rng.integers(1, 7)), width)) < density).astype(np.uint8)
        for density in (0.03, 0.08, 0.2)
        for _ in range(count)
    ]


def test_windows_decode_like_one_window_at_a_time(tier):
    code = tier.code
    matrices = [m for m in _random_matrices(code, 12, seed=71) if m.any()]
    corrections = tier.decode_event_windows(*_windows(matrices))
    assert corrections.dtype == np.uint8
    assert corrections.shape == (len(matrices), code.num_data_qubits)
    for matrix, correction in zip(matrices, corrections):
        # A window ends at its last event round, as the cascade ships it.
        last = int(np.flatnonzero(matrix.any(axis=1))[-1])
        expected = _bitmap(code, tier.decode(matrix[: last + 1]).correction)
        assert np.array_equal(correction, expected)


def test_empty_windows_decode_to_empty_corrections(tier):
    code = tier.code
    width = code.num_ancillas_of_type(X)
    busy = _random_matrices(code, 2, seed=73)[-2:]
    empty = np.zeros((3, width), dtype=np.uint8)
    corrections = tier.decode_event_windows(*_windows([empty, busy[0], empty, busy[1]]))
    assert not corrections[0].any()
    assert not corrections[2].any()
    alone = tier.decode_event_windows(*_windows(busy))
    assert np.array_equal(corrections[[1, 3]], alone)


def test_no_windows_give_an_empty_batch(tier):
    corrections = tier.decode_event_windows(*_windows([]))
    assert corrections.shape == (0, tier.code.num_data_qubits)


def test_every_single_data_error_is_corrected(tier):
    code = tier.code
    errors = [frozenset({qubit}) for qubit in code.data_qubits]
    matrices = [code.syndrome_of(error, X)[None, :] for error in errors]
    corrections = tier.decode_event_windows(*_windows(matrices))
    for error, correction in zip(errors, corrections):
        residual = error ^ frozenset(
            qubit for qubit in code.data_qubits if correction[code.data_index[qubit]]
        )
        assert not code.syndrome_of(residual, X).any()
        assert not code.is_logical_error(residual, X)


def test_measurement_error_pairs_need_no_data_correction(tier):
    # One ancilla firing in two consecutive rounds is a measurement error.
    code = tier.code
    width = code.num_ancillas_of_type(X)
    matrices = []
    for ancilla in range(width):
        matrix = np.zeros((3, width), dtype=np.uint8)
        matrix[1:3, ancilla] = 1
        matrices.append(matrix)
    corrections = tier.decode_event_windows(*_windows(matrices))
    assert not corrections.any()


def test_repeated_calls_are_identical(tier):
    windows = _windows(_random_matrices(tier.code, 8, seed=79))
    first = tier.decode_event_windows(*windows)
    second = tier.decode_event_windows(*windows)
    assert np.array_equal(first, second)
