"""Measurement-error persistence filter (Section 4.3 and Fig. 7 of the paper).

A measurement error flips an ancilla's reported value for a single round, so
in the difference-syndrome picture it shows up as a pair of detection events
on the *same ancilla* in consecutive rounds.  A genuine data error instead
produces detection events that appear once and then stay quiet.

The Clique decoder therefore only acts on detections that *persist*: a
detection at round ``t`` is accepted if the same ancilla does not flip again
within the next ``rounds - 1`` measurement rounds.  The paper's primary
design uses two rounds; more rounds buy extra robustness at extra hardware
cost, which is exactly the trade-off exposed here through the ``rounds``
parameter (and costed by :mod:`repro.hardware`).
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from repro.exceptions import ConfigurationError


def check_measurement_rounds(rounds: object) -> None:
    """Reject a persistence window that is not a whole number of rounds >= 1.

    The one check behind every ``measurement_rounds`` entry point.  Bools
    and non-integral values (``2.5``) are refused as well as values below 1:
    a window of 0 rounds would make every ancilla flip persist
    (``p ** 0 == 1``).  Any :class:`numbers.Integral`, ``np.int64``
    included, is accepted.
    """
    if isinstance(rounds, bool) or not isinstance(rounds, Integral):
        raise ConfigurationError(
            "measurement_rounds must be an integer number of rounds, "
            f"got {rounds!r}"
        )
    if rounds < 1:
        raise ConfigurationError(f"measurement_rounds must be >= 1, got {rounds}")


class PersistenceFilter:
    """Splits a round's detection events into *sticky* and *transient* sets.

    Args:
        rounds: total number of measurement rounds combined by the filter.
            ``rounds=1`` disables filtering (every detection is sticky);
            ``rounds=2`` is the paper's primary design.
    """

    def __init__(self, rounds: int = 2) -> None:
        check_measurement_rounds(rounds)
        self._rounds = rounds

    @property
    def rounds(self) -> int:
        return self._rounds

    def split(
        self, detection_matrix: np.ndarray, round_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split round ``round_index``'s detections into (sticky, transient).

        Args:
            detection_matrix: full detection-event matrix, shape
                ``(num_rounds, num_ancillas)``.
            round_index: which round to filter.

        Returns:
            A pair of binary vectors ``(sticky, transient)``.  ``sticky`` are
            detections with no repeat flip in the look-ahead window (treated
            as data errors); ``transient`` are detections that flip again
            (treated as measurement errors and ignored on-chip).  The final
            rounds of the history have a truncated look-ahead window, so their
            detections are always sticky — exactly as in hardware, where the
            filter simply has not seen the future yet.
        """
        matrix = np.atleast_2d(np.asarray(detection_matrix, dtype=np.uint8)) & 1
        if not 0 <= round_index < matrix.shape[0]:
            raise IndexError(
                f"round {round_index} out of range for {matrix.shape[0]} rounds"
            )
        row = matrix[round_index]
        lookahead = matrix[round_index + 1 : round_index + self._rounds]
        if lookahead.size == 0:
            return row.copy(), np.zeros_like(row)
        repeats = lookahead.any(axis=0).astype(np.uint8)
        sticky = row & ~repeats & 1
        transient = row & repeats & 1
        return sticky, transient

    def transient_partner_mask(
        self, detection_matrix: np.ndarray, round_index: int, transient: np.ndarray
    ) -> np.ndarray:
        """Mask of future detections explained by this round's transient events.

        For every transient detection at ``(ancilla, round_index)`` the first
        repeat flip of the same ancilla inside the look-ahead window is its
        partner; returning a mask over the full matrix lets the caller mark
        those partner events as consumed so they are not decoded twice.
        """
        matrix = np.atleast_2d(np.asarray(detection_matrix, dtype=np.uint8)) & 1
        mask = np.zeros_like(matrix)
        transient = np.asarray(transient, dtype=np.uint8) & 1
        for ancilla in np.flatnonzero(transient):
            for future in range(
                round_index + 1, min(round_index + self._rounds, matrix.shape[0])
            ):
                if matrix[future, ancilla]:
                    mask[future, ancilla] = 1
                    break
        return mask


__all__ = ["PersistenceFilter", "check_measurement_rounds"]
