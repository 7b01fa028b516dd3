"""Per-cycle signature sampling on packed bitplanes (the Fig. 4 workload).

The signature-distribution and coverage experiments only need the *per-cycle*
view: which ancillas light up in a single decode cycle given that previous
cycles' errors have already been corrected.  A batch of cycles is then two
independent fields, fresh data errors and measurement flips, which
:func:`sample_cycle_planes` draws and packs trials-major (64 cycles per
uint64 word, :mod:`repro.bitplane`).  Fig. 4 classifies those planes with
:func:`classify_cycle_planes`: XOR-parity signatures, a bit-sliced count of
the error events touching each ancilla, and popcounts.  The coverage kernel
(:func:`repro.simulation.coverage.sample_complex_words`) runs the Clique
decision on the same planes.
"""

from __future__ import annotations

import numpy as np

from repro import bitplane
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import ConfigurationError
from repro.noise.models import NoiseModel
from repro.noise.rng import make_rng
from repro.simulation.results import SignatureDistribution
from repro.types import StabilizerType

#: Uniform draws per RNG call when a field is drawn in row blocks (8 MB of
#: float64), so no batch holds a dense ``(cycles, qubits)`` float matrix.
DRAW_BLOCK_VALUES = 1 << 20

#: Words (64 cycles each) classified per step, which bounds the classifier's
#: temporaries to ``ancillas x 16`` words at any batch size.
CLASSIFY_WORDS = 16


def _packed_field(
    rng: np.random.Generator, rows: int, width: int, rate: float
) -> np.ndarray:
    """``rng.random((rows, width)) < rate`` as ``(width, words)`` uint64 planes.

    The field is drawn in blocks of whole 64-row words; C-order filling makes
    consecutive row blocks the same values as one ``(rows, width)`` draw.
    """
    block_words = max(1, DRAW_BLOCK_VALUES // (width * bitplane.WORD_BITS))
    planes = np.empty((width, bitplane.num_words(rows)), dtype=np.uint64)
    for first_word in range(0, planes.shape[1], block_words):
        start = first_word * bitplane.WORD_BITS
        block_rows = min(block_words * bitplane.WORD_BITS, rows - start)
        bits = rng.random((block_rows, width)) < rate
        planes[:, first_word : first_word + block_words] = bitplane.pack_trials(bits)
    return planes


def sample_cycle_planes(
    code: RotatedSurfaceCode,
    stype: StabilizerType,
    noise: NoiseModel,
    flip_rate: float,
    num_cycles: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``num_cycles`` independent decode cycles, packed trials-major.

    The one per-cycle sampling path, shared by Fig. 4 (``flip_rate`` is the
    measurement error rate) and the coverage kernel (the persistence-filtered
    rate ``q ** measurement_rounds``).  The data field is drawn first, as
    ``NoiseModel.sample_data_matrix`` would (a subclass overriding it is
    called as is), then the flip field as ``rng.random((num_cycles,
    ancillas)) < flip_rate``.  These two draws, in this order, are part of
    the seeded-output contract.

    Returns:
        ``(data_planes, flip_planes)``: ``(num_data_qubits, words)`` and
        ``(num_ancillas, words)`` uint64, ``words = ceil(num_cycles / 64)``,
        with zero padding bits.
    """
    if type(noise).sample_data_matrix is NoiseModel.sample_data_matrix:
        data_planes = _packed_field(
            rng, num_cycles, code.num_data_qubits, noise.data_error_rate
        )
    else:
        data_planes = bitplane.pack_trials(
            noise.sample_data_matrix(code, num_cycles, rng)
        )
    flip_planes = _packed_field(
        rng, num_cycles, code.num_ancillas_of_type(stype), flip_rate
    )
    return data_planes, flip_planes


def _true_supports(parity_check: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ancilla's unpadded data-qubit support as ``(columns, present)``.

    Slot ``j`` of ancilla ``a`` reads data plane ``columns[j, a]`` under the
    mask ``present[j, a]``: all ones for a real support qubit, zero past the
    ancilla's weight.  :class:`~repro.bitplane.PackedParityCheck` pads short
    rows by repeating a column instead, which is harmless for parity but
    would count one error as two touches.
    """
    rows, columns = np.nonzero(parity_check)
    weights = np.bincount(rows, minlength=parity_check.shape[0])
    slots = np.arange(rows.size) - (np.cumsum(weights) - weights)[rows]
    table = np.zeros((int(weights.max()), parity_check.shape[0]), dtype=np.int64)
    present = np.zeros(table.shape + (1,), dtype=np.uint64)
    table[slots, rows] = columns
    present[slots, rows] = np.uint64(np.iinfo(np.uint64).max)
    return table, present


def classify_cycle_planes(
    code: RotatedSurfaceCode,
    stype: StabilizerType,
    data_planes: np.ndarray,
    flip_planes: np.ndarray,
    num_cycles: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fig. 4 classes of packed cycles (:func:`sample_cycle_planes`).

    A cycle's signature is ``PackedParityCheck.syndromes(data) ^ flips``.
    It is *complex* when its signature is not empty and some ancilla is
    touched by two or more error events (a chain), counting each data error
    in the ancilla's true support and its own flip; *all-zeros* when its
    signature is empty; and *local-1s* otherwise.  Touches are counted by a
    saturating bit-sliced counter (``once``, ``twice``) over the ancilla's
    support slots, 64 cycles per word.

    Returns:
        ``(all_zeros, local_ones, complex_)`` word vectors: bit ``t`` is set
        iff cycle ``t`` is in that class.  Padding bits are 0 in all three.
    """
    packed_check = bitplane.get_packed_parity_check(code.distance, stype)
    columns, present = _true_supports(code.parity_check(stype))
    words = flip_planes.shape[-1]
    active = np.empty(words, dtype=np.uint64)
    chained = np.empty(words, dtype=np.uint64)
    for start in range(0, words, CLASSIFY_WORDS):
        part = slice(start, start + CLASSIFY_WORDS)
        data, flips = data_planes[:, part], flip_planes[:, part]
        signatures = packed_check.syndromes(data[np.newaxis])[0] ^ flips
        once, twice = flips.copy(), np.zeros_like(flips)
        for slot_columns, slot_present in zip(columns, present):
            touch = np.take(data, slot_columns, axis=0) & slot_present
            twice |= once & touch
            once |= touch
        active[part] = np.bitwise_or.reduce(signatures, axis=0)
        chained[part] = np.bitwise_or.reduce(twice, axis=0)
    quiet = ~active & bitplane.trial_mask_words(num_cycles)
    return quiet, active & ~chained, active & chained


def simulate_signature_distribution(
    code: RotatedSurfaceCode,
    noise: NoiseModel,
    num_cycles: int,
    stype: StabilizerType = StabilizerType.X,
    rng: np.random.Generator | int | None = None,
    batch_size: int = 100_000,
) -> SignatureDistribution:
    """Monte-Carlo estimate of the Fig. 4 signature-class distribution.

    The distribution is estimated for a single error species (X and Z planes
    are statistically identical under the paper's symmetric noise model).
    Cycles are drawn in ``batch_size`` batches, one
    :func:`sample_cycle_planes` call each (so the batch size is part of the
    seeded stream), and classified by :func:`classify_cycle_planes`.  A
    non-positive ``num_cycles`` or ``batch_size`` is a
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if num_cycles <= 0:
        raise ConfigurationError(f"num_cycles must be positive, got {num_cycles}")
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    generator = make_rng(rng)
    counts = np.zeros(3, dtype=np.int64)
    for start in range(0, num_cycles, batch_size):
        batch = min(batch_size, num_cycles - start)
        planes = sample_cycle_planes(
            code, stype, noise, noise.measurement_error_rate, batch, generator
        )
        classes = classify_cycle_planes(code, stype, *planes, batch)
        counts += [bitplane.popcount(words) for words in classes]
    all_zeros, local_ones, complex_ = (int(count) for count in counts)
    return SignatureDistribution(
        physical_error_rate=noise.data_error_rate,
        code_distance=code.distance,
        cycles=num_cycles,
        all_zeros=all_zeros,
        local_ones=local_ones,
        complex_=complex_,
    )


__all__ = [
    "classify_cycle_planes",
    "sample_cycle_planes",
    "simulate_signature_distribution",
]
