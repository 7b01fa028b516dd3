"""Fault-distance oracle: every low-weight space-time fault set, decoded.

A distance-``d`` code decoded by MWPM must correct every fault set of weight
at most ``t = (d - 1) // 2``.  Here a fault is one data-qubit error or one
measurement flip at one of the ``d`` noisy rounds of a memory experiment, so
there are ``d * (num_data + num_ancillas)`` fault locations (185 at d=5).
Each fault set is one trial: its planes are built directly, with no random
draw, and pushed through the production packed pipeline
(:func:`repro.simulation.batch._run_packed_chunk`, which appends the final
perfectly-read round and counts logical failures).  The enumeration is
exhaustive at d=3 (weight 1) and d=5 (weights 1 and 2: 17,020 pairs).

The Clique+MWPM cascade does *not* reach MWPM's fault distance at d=5: two
data errors that share an ancilla, in consecutive rounds, fire that ancilla
twice, and the two-round persistence filter takes the pair for a
measurement error.  Its failing pair count is pinned below as a known gap,
not a target; the bound on fig14 is not loosened for it.

A new off-chip decoder enters the cascade as a ready ``Decoder`` tier; the
ready-tier tests run the same enumeration through that slot, here with MWPM
behind each branch of the base per-window loop (``offchip_tiers.py``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro import bitplane
from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.decoders.mwpm import MWPMDecoder
from repro.simulation.batch import logical_support_bitmap, _run_packed_chunk
from repro.types import StabilizerType

from offchip_tiers import READY_TIERS, ReadyTierCascade

#: Failing d=5 weight-2 fault pairs of the Clique+MWPM cascade (X
#: stabilizers): every one is two data errors in consecutive rounds.
CASCADE_D5_WEIGHT2_FAILURES = 72


class _FixedFaults:
    """Noise stand-in whose "sample" is a fixed stack of fault planes."""

    def __init__(self, data_planes: np.ndarray, flip_planes: np.ndarray) -> None:
        self._planes = (data_planes, flip_planes)

    def sample_history_packed(self, code, stype, trials, rounds, rng):
        return self._planes


def _fault_locations(code, stype, rounds):
    """Every single fault: ``("data", round, qubit)`` or ``("flip", round, ancilla)``."""
    return [
        ("data", r, q) for r in range(rounds) for q in range(code.num_data_qubits)
    ] + [
        ("flip", r, a)
        for r in range(rounds)
        for a in range(code.num_ancillas_of_type(stype))
    ]


def _count_failures(decoder, code, stype, fault_sets) -> int:
    """Logical failures of the fault sets, one trial each, through the packed chunk."""
    rounds = code.distance
    trials = len(fault_sets)
    data = np.zeros((trials, rounds, code.num_data_qubits), dtype=np.uint8)
    flips = np.zeros((trials, rounds, code.num_ancillas_of_type(stype)), dtype=np.uint8)
    for trial, faults in enumerate(fault_sets):
        for kind, r, index in faults:
            (data if kind == "data" else flips)[trial, r, index] ^= 1
    noise = _FixedFaults(bitplane.pack_trials(data), bitplane.pack_trials(flips))
    _, failures = _run_packed_chunk(
        code,
        noise,
        decoder,
        bitplane.get_packed_parity_check(code.distance, stype),
        np.flatnonzero(logical_support_bitmap(code, stype)),
        trials,
        rounds,
        stype,
        None,
    )
    return failures


def _fault_sets(code, stype, weight):
    locations = _fault_locations(code, stype, code.distance)
    return list(combinations(locations, weight))


@pytest.mark.parametrize("stype", list(StabilizerType))
@pytest.mark.parametrize("distance", [3, 5])
def test_mwpm_corrects_every_fault_set_up_to_half_the_distance(distance, stype):
    code = get_code(distance)
    decoder = MWPMDecoder(code, stype)
    for weight in range(1, (distance - 1) // 2 + 1):
        fault_sets = _fault_sets(code, stype, weight)
        assert _count_failures(decoder, code, stype, fault_sets) == 0, weight


def test_d5_enumeration_sizes():
    code = get_code(5)
    assert len(_fault_locations(code, StabilizerType.X, 5)) == 185
    assert len(_fault_sets(code, StabilizerType.X, 2)) == 17_020


@pytest.mark.parametrize("distance", [3, 5])
def test_cascade_corrects_every_single_fault(distance):
    code = get_code(distance)
    cascade = DecoderCascade(code, StabilizerType.X, tiers="clique,mwpm")
    assert _count_failures(cascade, code, StabilizerType.X, _fault_sets(code, StabilizerType.X, 1)) == 0


def test_cascade_d5_weight2_known_gap():
    code = get_code(5)
    cascade = DecoderCascade(code, StabilizerType.X, tiers="clique,mwpm")
    fault_sets = _fault_sets(code, StabilizerType.X, 2)
    assert _count_failures(cascade, code, StabilizerType.X, fault_sets) == (
        CASCADE_D5_WEIGHT2_FAILURES
    )
    # The documented example: data qubits 1 and 2 in rounds 0 and 1.
    example = [(("data", 0, 1), ("data", 1, 2))]
    assert _count_failures(cascade, code, StabilizerType.X, example) == 1
    assert _count_failures(MWPMDecoder(code, StabilizerType.X), code, StabilizerType.X, example) == 0


@pytest.mark.parametrize("distance", [3, 5])
@pytest.mark.parametrize("tier", sorted(READY_TIERS))
def test_ready_tier_cascade_corrects_every_single_fault(tier, distance):
    code = get_code(distance)
    cascade = ReadyTierCascade(READY_TIERS[tier])(code, StabilizerType.X)
    fault_sets = _fault_sets(code, StabilizerType.X, 1)
    assert _count_failures(cascade, code, StabilizerType.X, fault_sets) == 0


@pytest.mark.parametrize("tier", sorted(READY_TIERS))
def test_ready_tier_cascade_has_the_named_cascades_d5_weight2_gap(tier):
    # The gap is the on-chip filter's, so an exact ready tier leaves it as is.
    code = get_code(5)
    cascade = ReadyTierCascade(READY_TIERS[tier])(code, StabilizerType.X)
    fault_sets = _fault_sets(code, StabilizerType.X, 2)
    assert _count_failures(cascade, code, StabilizerType.X, fault_sets) == (
        CASCADE_D5_WEIGHT2_FAILURES
    )
