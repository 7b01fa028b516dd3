"""Batched Monte-Carlo engine for memory experiments (the fast path).

The loop engine in :mod:`repro.simulation.memory` pays the expensive path's
bookkeeping on every trial: per-trial parity-check products and a per-trial
decode.  This module applies the paper's own triage insight to the simulator
itself, 64 trials per machine word on the uint64 bitplanes of
:mod:`repro.bitplane`:

1. all trial error histories are sampled straight into packed planes by the
   sparse block sampler
   (:meth:`repro.noise.models.NoiseModel.sample_history_packed`): per
   2048-trial block, the positions of the errors are walked with geometric
   gaps and OR-ed in as bits, so the cost follows the number of errors
   rather than the number of (trial, round, qubit) entries;
2. detection events come straight from each round's fresh errors: with
   ``e[r]`` round ``r``'s data errors and ``f[r]`` its measurement flips,
   ``det[r] = H·e[r] ⊕ f[r] ⊕ f[r−1]`` (``f[−1] = 0``) and the final,
   perfectly read round gives ``det[R] = f[R−1]`` — the same bits as
   differencing the observed syndromes of the accumulated errors, without
   accumulating them;
3. the decoder's :meth:`~repro.decoders.base.Decoder.decode_batch_packed`
   hook triages the whole batch — for the Clique cascade, trials whose rounds
   are all trivial are corrected by word-wise table lookups and only the
   rare complex minority's windows go to the off-chip tier, all in one
   call;
4. logical failures are popcounts of the XOR-reduced logical-support planes
   of the residual, the XOR of every round's errors and the correction.

The engine is **bit-identical** to the loop engine under a fixed seed: both
draw the same blocks of :meth:`NoiseModel.sample_error_blocks` (the loop
scatters each block's positions into per-trial vectors instead of bits),
every kernel is an exact GF(2) counterpart of the loop's arithmetic, and
``decode_batch_packed`` implementations are required to match per-trial
decoding exactly.  The loop engine therefore remains the correctness oracle
(``engine="loop"``), while this engine is the default gate to paper-scale
trial counts.

Seeding contract: ``loop`` and ``batch`` consume one root stream
(``make_rng(seed)``) block by block in the same order, which is what makes
them bit-identical.  Chunks here are whole blocks (``chunk_trials`` is
rounded up to a multiple of 2048), so chunking only slices that single
stream at block boundaries and never reseeds: ``chunk_trials`` does not
affect results.  Scheduled runs (:func:`repro.simulation.scheduler.memory_point`
on the shard layer of :mod:`repro.simulation.shard`) instead give every
shard an independent child stream derived from
``(seed, shard_index)`` — deterministic for a fixed ``(seed, chunk_trials)``
regardless of worker count, but intentionally *not* the root stream (a
single sequential stream cannot be consumed from multiple processes).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import bitplane
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder
from repro.exceptions import ConfigurationError
from repro.noise.models import PACKED_SAMPLE_BLOCK, NoiseModel
from repro.noise.rng import make_rng
from repro.types import StabilizerType

#: Trials decoded per vectorised chunk: one sampling block.  Bounds peak
#: memory (the packed history is ``chunk * rounds * (data + ancilla)`` bits,
#: plus the decoder's per-chunk planes) while keeping the per-chunk numpy
#: fixed costs small.
DEFAULT_CHUNK_TRIALS = PACKED_SAMPLE_BLOCK


def logical_support_bitmap(code: RotatedSurfaceCode, stype: StabilizerType) -> np.ndarray:
    """Logical-operator support as an int64 bitmap in ``data_index`` order."""
    bitmap = np.zeros(code.num_data_qubits, dtype=np.int64)
    data_index = code.data_index
    for qubit in code.logical_support(stype):
        bitmap[data_index[qubit]] = 1
    return bitmap


def run_memory_experiment_batch(
    code: RotatedSurfaceCode,
    noise: NoiseModel,
    decoder_factory: Callable[[RotatedSurfaceCode, StabilizerType], Decoder],
    trials: int,
    rounds: int | None = None,
    stype: StabilizerType = StabilizerType.X,
    rng: np.random.Generator | int | None = None,
    decoder_name: str | None = None,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
):
    """Batched counterpart of :func:`repro.simulation.memory.run_memory_experiment`.

    Same contract and bit-identical results under the same seed; see the
    module docstring for how the speedup is obtained.  ``chunk_trials`` caps
    how many trials are vectorised at once; it is rounded up to a whole
    number of 2048-trial sampling blocks, so chunk boundaries never split a
    block and the chunk size never changes a result.
    """
    # Imported lazily: memory.py re-exports this engine behind its
    # ``engine="batch"`` switch, so a module-level import would be circular.
    from repro.simulation.memory import MemoryExperimentResult

    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if rounds is None:
        rounds = code.distance
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds}")
    if chunk_trials <= 0:
        raise ConfigurationError(f"chunk_trials must be positive, got {chunk_trials}")
    chunk_trials = -(-chunk_trials // PACKED_SAMPLE_BLOCK) * PACKED_SAMPLE_BLOCK

    generator = make_rng(rng)
    decoder = decoder_factory(code, stype)
    packed_check = bitplane.get_packed_parity_check(code.distance, stype)
    logical_planes = np.flatnonzero(logical_support_bitmap(code, stype))

    tier_names = tuple(getattr(decoder, "tier_names", ()) or ())
    tier_trials = np.zeros(len(tier_names), dtype=np.int64)
    tier_rounds = np.zeros(len(tier_names), dtype=np.int64)
    failures = 0
    onchip_rounds = 0
    total_rounds = 0
    remaining = trials
    while remaining > 0:
        chunk = min(chunk_trials, remaining)
        batch_result, chunk_failures = _run_packed_chunk(
            code, noise, decoder, packed_check, logical_planes,
            chunk, rounds, stype, generator,
        )
        failures += chunk_failures
        onchip_rounds += int(batch_result.onchip_rounds.sum())
        total_rounds += int(batch_result.total_rounds.sum())
        if tier_names and batch_result.tier_trials is not None:
            tier_trials += batch_result.tier_trials
            tier_rounds += batch_result.tier_rounds
        remaining -= chunk

    return MemoryExperimentResult(
        physical_error_rate=noise.data_error_rate,
        code_distance=code.distance,
        rounds=rounds,
        trials=trials,
        logical_failures=failures,
        decoder_name=decoder_name or decoder.name,
        onchip_rounds=onchip_rounds,
        total_rounds=total_rounds,
        tier_names=tier_names,
        tier_trials=tuple(int(n) for n in tier_trials),
        tier_rounds=tuple(int(n) for n in tier_rounds),
    )


def detection_planes(
    packed_check: bitplane.PackedParityCheck,
    data_planes: np.ndarray,
    flip_planes: np.ndarray,
) -> np.ndarray:
    """Packed detection events of a memory history with a perfect final round.

    Args:
        packed_check: the stabilizers' packed parity check ``H``.
        data_planes: ``(rounds, num_data, words)`` fresh data errors ``e``.
        flip_planes: ``(rounds, num_ancillas, words)`` measurement flips ``f``.

    Returns:
        ``(rounds + 1, num_ancillas, words)`` uint64 planes
        ``det[r] = H·e[r] ⊕ f[r] ⊕ f[r−1]`` (``f[−1] = 0``) and
        ``det[rounds] = f[rounds − 1]``: bit for bit the differences of the
        observed syndromes ``H·(e[0] ⊕ … ⊕ e[r]) ⊕ f[r]`` followed by the
        perfectly read ``H·(e[0] ⊕ … ⊕ e[rounds − 1])``, with round 0
        differenced against the all-zero reference frame.
    """
    rounds = data_planes.shape[0]
    detections = np.empty((rounds + 1,) + flip_planes.shape[1:], dtype=np.uint64)
    packed_check.syndromes(data_planes, out=detections[:rounds])
    detections[:rounds] ^= flip_planes
    detections[1:rounds] ^= flip_planes[:-1]
    detections[rounds] = flip_planes[-1]
    return detections


def _run_packed_chunk(
    code, noise, decoder, packed_check, logical_planes,
    chunk, rounds, stype, generator,
):
    """One chunk through the uint64 bitplane pipeline.

    Detection events from each round's fresh errors (module docstring, step
    2), packed decode, and a popcount of the XOR-reduced logical-support
    planes of the residual for the failure count.  The tail mask guards the
    ragged last word against decoders that do not keep padding bits zero.
    """
    data_planes, flip_planes = noise.sample_history_packed(
        code, stype, chunk, rounds, generator
    )

    detections = detection_planes(packed_check, data_planes, flip_planes)
    packed_result = decoder.decode_batch_packed(detections, chunk)
    residual = np.bitwise_xor.reduce(data_planes[:, logical_planes], axis=0)
    residual ^= packed_result.corrections[logical_planes]
    failure_words = np.bitwise_xor.reduce(residual, axis=0)
    failures = bitplane.popcount(failure_words & bitplane.trial_mask_words(chunk))
    return packed_result, failures


__all__ = [
    "DEFAULT_CHUNK_TRIALS",
    "detection_planes",
    "logical_support_bitmap",
    "run_memory_experiment_batch",
]
