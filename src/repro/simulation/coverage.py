"""Clique on-chip coverage measurement (Figs. 11 and 12 of the paper).

*Coverage* is the fraction of decode cycles whose signature the Clique
decoder resolves without going off-chip.  The behavioural decision chain per
cycle is:

1. fresh data errors light up their adjacent ancillas;
2. measurement errors are filtered by the persistence window: only flips that
   repeat for ``measurement_rounds`` consecutive readouts reach the decision
   logic (Section 4.3), so a persistent readout fault shows up as a lone
   active ancilla;
3. the Clique decision logic (Fig. 5) marks the cycle on-chip if every active
   clique passes the local parity test, off-chip otherwise.

The kernel (:func:`sample_complex_words`) runs that chain on uint64
bitplanes (:mod:`repro.bitplane`): 64 cycles per word, XOR-parity syndromes
instead of a widened matmul, the word-wise Clique decision, and popcount
counts.  It is pinned count-for-count against the int64 reference
formulation in ``tests/simulation/coverage_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import bitplane
from repro.clique.decoder import CliqueDecoder
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import ConfigurationError
from repro.noise.models import NoiseModel
from repro.noise.rng import make_rng
from repro.simulation.monte_carlo import until_wilson, wilson_interval
from repro.simulation.scheduler import SweepScheduler, coverage_point
from repro.simulation.shard import AUTO_CHUNK, resolve_auto_chunk
from repro.types import StabilizerType

#: Cycles per shard of a sharded/adaptive coverage run: small enough that a
#: Fig. 11-size budget (20k cycles) still yields several shards to spread
#: over a pool, large enough to amortise per-shard decoder construction.
DEFAULT_SHARD_CYCLES = 5_000


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a Clique coverage simulation at one operating point."""

    physical_error_rate: float
    code_distance: int
    measurement_rounds: int
    cycles: int
    onchip_cycles: int
    all_zero_cycles: int

    @property
    def offchip_cycles(self) -> int:
        return self.cycles - self.onchip_cycles

    @property
    def coverage(self) -> float:
        """Fraction of decode cycles handled on-chip (Fig. 11's y-axis)."""
        return self.onchip_cycles / self.cycles if self.cycles else 1.0

    @property
    def offchip_fraction(self) -> float:
        return 1.0 - self.coverage

    @property
    def coverage_interval(self) -> tuple[float, float]:
        return wilson_interval(self.onchip_cycles, self.cycles)

    @property
    def nonzero_cycles(self) -> int:
        return self.cycles - self.all_zero_cycles

    @property
    def nonzero_onchip_cycles(self) -> int:
        """On-chip cycles whose signature was not all zeros (real Clique work)."""
        return self.onchip_cycles - self.all_zero_cycles

    @property
    def nonzero_coverage(self) -> float:
        """Fraction of non-all-0s cycles still handled on-chip (Fig. 12's y-axis)."""
        if self.nonzero_cycles == 0:
            return 1.0
        return self.nonzero_onchip_cycles / self.nonzero_cycles

    @property
    def onchip_nonzero_share(self) -> float:
        """Share of the on-chip decodes that carried a non-trivial signature."""
        if self.onchip_cycles == 0:
            return 0.0
        return self.nonzero_onchip_cycles / self.onchip_cycles


def sample_complex_words(
    clique: CliqueDecoder,
    packed_check: bitplane.PackedParityCheck,
    noise: NoiseModel,
    measurement_rounds: int,
    cycles: int,
    generator: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``cycles`` independent decode cycles and triage them, packed.

    The one coverage body shared by :class:`CoverageKernel`, the in-process
    path of :func:`simulate_clique_coverage` and
    :class:`repro.bandwidth.machine.LogicalMachine`.  Fresh data errors come
    from ``NoiseModel.sample_data_matrix`` (so subclasses overriding the
    batched data sampler are honoured), then one ``(cycles, ancillas)``
    uniform draw marks the persistence-filtered measurement flips (rate
    ``p ** measurement_rounds``).  These two draws, in this order, are part
    of the seeded-output contract.  Both are packed trials-major
    (:mod:`repro.bitplane`); signatures are XOR-parity syndromes XOR the
    flips, and the Clique decision runs word-wise.

    Args:
        clique: Clique decoder of the code and stabilizer type to sample.
        packed_check: :class:`~repro.bitplane.PackedParityCheck` of the
            same code and stabilizer type.

    Returns:
        ``(complex_words, active_words)``, each ``(num_words(cycles),)``
        uint64: bit ``t`` of ``complex_words`` is set iff cycle ``t`` must go
        off-chip, bit ``t`` of ``active_words`` iff its signature is not all
        zeros.  Padding bits are 0 in both.
    """
    code = clique.code
    data_errors = noise.sample_data_matrix(code, cycles, generator)
    persistent_flips = (
        generator.random((cycles, packed_check.num_ancillas))
        < noise.measurement_error_rate**measurement_rounds
    )
    signatures = packed_check.syndromes(
        bitplane.pack_trials(data_errors)[np.newaxis]
    )[0] ^ bitplane.pack_trials(persistent_flips)
    return (
        clique.complex_any_packed(signatures),
        np.bitwise_or.reduce(signatures, axis=0),
    )


def _count_coverage(
    clique: CliqueDecoder,
    noise: NoiseModel,
    measurement_rounds: int,
    num_cycles: int,
    generator: np.random.Generator,
    batch_size: int,
) -> tuple[int, int]:
    """Count (on-chip, all-zero) cycles in ``batch_size`` packed batches.

    Each batch is one :func:`sample_complex_words` call; the counts are
    popcounts of the negated complex/active words under the batch's trial
    mask, so padding cycles never count.
    """
    packed_check = bitplane.PackedParityCheck(
        clique.code.parity_check(clique.stabilizer_type)
    )
    onchip = 0
    all_zero = 0
    remaining = num_cycles
    while remaining > 0:
        batch = min(batch_size, remaining)
        complex_words, active_words = sample_complex_words(
            clique, packed_check, noise, measurement_rounds, batch, generator
        )
        mask = bitplane.trial_mask_words(batch)
        onchip += bitplane.popcount(~complex_words & mask)
        all_zero += bitplane.popcount(~active_words & mask)
        remaining -= batch
    return onchip, all_zero


@dataclass(frozen=True)
class CoverageKernel:
    """Picklable coverage shard kernel (see :func:`~repro.simulation.coverage_point`).

    Partial results are ``(onchip_cycles, all_zero_cycles, cycles)`` count
    tuples, merged by the default elementwise sum.  The kernel ships as a few
    hundred bytes: the code pickles as its distance (each worker resolves it
    from its own :func:`~repro.codes.rotated_surface.get_code` cache) and the
    Clique decoder is rebuilt per shard.
    """

    code: RotatedSurfaceCode
    noise: NoiseModel
    stype: StabilizerType = StabilizerType.X
    measurement_rounds: int = 2
    batch_size: int = 50_000

    def __call__(
        self, num_cycles: int, rng: np.random.Generator
    ) -> tuple[int, int, int]:
        onchip, all_zero = _count_coverage(
            CliqueDecoder(self.code, self.stype),
            self.noise,
            self.measurement_rounds,
            num_cycles,
            rng,
            self.batch_size,
        )
        return onchip, all_zero, num_cycles


def _coverage_successes(counts: tuple[int, int, int]) -> int:
    """Tracked proportion for adaptive coverage runs: the on-chip count."""
    return counts[0]


def _is_sharded(
    workers: int | None,
    chunk_cycles: "int | str | None",
    target_ci_width: float | None,
) -> bool:
    """Single source of truth for engaging the sharded coverage engine.

    Shared by :func:`simulate_clique_coverage` and the store keying contract
    of :func:`resolve_coverage_config` — the two must never drift, or cache
    keys would record a different stream topology than the run used.
    """
    return workers is not None or chunk_cycles is not None or target_ci_width is not None


def _resolve_chunk(
    chunk_cycles: "int | str | None",
    num_cycles: int,
    workers: int | None,
    distance: int,
) -> int:
    """One chunk-size resolution for the simulator and the keying contract.

    ``"auto"`` picks the shard size from the budget, worker count, and
    distance (:func:`repro.simulation.shard.resolve_auto_chunk`); the store
    key records the resolved integer, never the machine-dependent spelling.
    """
    if chunk_cycles == AUTO_CHUNK:
        return resolve_auto_chunk(
            num_cycles, workers, distance, default=DEFAULT_SHARD_CYCLES
        )
    return chunk_cycles if chunk_cycles is not None else DEFAULT_SHARD_CYCLES


def resolve_coverage_config(
    num_cycles: int,
    noise: NoiseModel,
    distance: int,
    stype: StabilizerType = StabilizerType.X,
    measurement_rounds: int = 2,
    workers: int | None = None,
    chunk_cycles: "int | str | None" = None,
    target_ci_width: float | None = None,
    min_cycles: int | None = None,
    batch_size: int = 50_000,
) -> dict[str, object]:
    """The fully resolved, stream-determining config of one coverage point.

    This is the result-store keying contract for
    :func:`simulate_clique_coverage`: every knob that can change the counts
    appears with its default resolved (so an omitted default and an explicit
    one key identically), and the one knob that never changes the counts
    (``workers``) is excluded — excluded keywords are centrally listed in
    :data:`repro.store.keys.KEY_EXCLUDED`, and lint rule ``KEY001`` checks
    that this function plus that list cover the full
    :func:`simulate_clique_coverage` signature.  The noise model enters as its class name plus
    *both* rates — a ``PhenomenologicalNoise(p, q)`` with an independent
    measurement rate must not share a key with the symmetric ``q == p``
    model.  ``batch_size`` *is* stream-determining — splitting a run into
    batches interleaves the data-error and measurement-flip draws
    differently — and whether the sharded engine is engaged changes the
    streams too (:func:`_is_sharded` keeps the two call sites in lock-step).
    """
    sharded = _is_sharded(workers, chunk_cycles, target_ci_width)
    chunk = _resolve_chunk(chunk_cycles, num_cycles, workers, distance)
    if target_ci_width is None:
        # min_cycles is adaptive-only (the simulator rejects it otherwise).
        resolved_min = None
    elif min_cycles is not None:
        resolved_min = min_cycles
    else:
        # Mirror of the simulator's adaptive default for the Wilson floor.
        resolved_min = min(chunk, num_cycles)
    return {
        "kind": "coverage",
        "cycles": num_cycles,
        "distance": distance,
        "noise": type(noise).__name__,
        "data_error_rate": noise.data_error_rate,
        "measurement_error_rate": noise.measurement_error_rate,
        "stype": stype.value,
        "measurement_rounds": measurement_rounds,
        "sharded": sharded,
        "chunk_cycles": chunk if sharded else None,
        "target_ci_width": target_ci_width,
        "min_cycles": resolved_min,
        "batch_size": batch_size,
    }


def simulate_clique_coverage(
    code: RotatedSurfaceCode,
    noise: NoiseModel,
    num_cycles: int,
    stype: StabilizerType = StabilizerType.X,
    measurement_rounds: int = 2,
    rng: np.random.Generator | int | None = None,
    batch_size: int = 50_000,
    decoder: CliqueDecoder | None = None,
    workers: int | None = None,
    chunk_cycles: "int | str | None" = None,
    target_ci_width: float | None = None,
    min_cycles: int | None = None,
    checkpoint: object | None = None,
) -> CoverageResult:
    """Estimate Clique coverage by sampling independent decode cycles.

    Measurement errors only reach the decision logic when they persist for
    the full ``measurement_rounds`` window, which happens with probability
    ``p ** measurement_rounds`` per ancilla per cycle; transient flips are
    filtered on-chip for free.

    Engine selection: with ``workers``, ``chunk_cycles``, and
    ``target_ci_width`` all ``None`` (the default), the historical in-process
    single-stream path runs and ``rng`` may be a ready generator.  Passing
    any of them selects the sharded engine: the point runs as a one-point
    sweep of :class:`~repro.simulation.scheduler.SweepScheduler`, ``rng``
    must then be an integer seed, and the counts are deterministic per
    ``(seed, chunk_cycles)`` independent of ``workers`` — equal to running
    :class:`CoverageKernel` once per shard under the ``shard_rng(seed, i)``
    contract and summing.

    Adaptive allocation: ``target_ci_width`` stops spawning shards once the
    Wilson interval on the coverage proportion is at most that wide
    (``min_cycles`` floor, ``num_cycles`` budget cap); the result's
    ``cycles`` field records what was actually consumed.  ``checkpoint``
    (adaptive only) enables per-wave mid-point resume — see
    :class:`repro.simulation.scheduler.SweepPoint`.

    ``chunk_cycles="auto"`` resolves the shard size from the budget, worker
    count, and distance (:func:`repro.simulation.shard.resolve_auto_chunk`).

    ``decoder`` reuses a ready :class:`CliqueDecoder` on the in-process path;
    it must be built for ``code``'s distance and ``stype``, or the call
    raises :class:`~repro.exceptions.ConfigurationError`.
    """
    if num_cycles <= 0:
        raise ConfigurationError(f"num_cycles must be positive, got {num_cycles}")
    if measurement_rounds < 1:
        raise ConfigurationError(
            f"measurement_rounds must be >= 1, got {measurement_rounds}"
        )
    if min_cycles is not None and target_ci_width is None:
        raise ConfigurationError(
            "min_cycles is only meaningful with target_ci_width (adaptive "
            "sampling); a silently ignored floor would suggest it was applied"
        )
    if checkpoint is not None and target_ci_width is None:
        raise ConfigurationError(
            "checkpoint is only meaningful with target_ci_width (adaptive "
            "sampling): fixed-budget sweeps resume at sweep-point granularity"
        )

    if decoder is not None and (
        decoder.code.distance != code.distance or decoder.stabilizer_type is not stype
    ):
        raise ConfigurationError(
            f"the Clique decoder was built for distance {decoder.code.distance}, "
            f"{decoder.stabilizer_type.name} stabilizers; this coverage run "
            f"measures distance {code.distance}, {stype.name} stabilizers"
        )
    if _is_sharded(workers, chunk_cycles, target_ci_width):
        if decoder is not None:
            raise ConfigurationError(
                "a pre-built decoder cannot be used with the sharded coverage "
                "path: each shard rebuilds its own CliqueDecoder"
            )
        chunk = _resolve_chunk(chunk_cycles, num_cycles, workers, code.distance)
        stop = (
            until_wilson(
                target_ci_width,
                min_trials=min_cycles
                if min_cycles is not None
                else min(chunk, num_cycles),
                max_trials=num_cycles,
            )
            if target_ci_width is not None
            else None
        )
        point = coverage_point(
            "point",
            code,
            noise,
            cycles=num_cycles,
            seed=rng,
            measurement_rounds=measurement_rounds,
            stype=stype,
            batch_size=batch_size,
            chunk_cycles=chunk,
            stop=stop,
            checkpoint=checkpoint,
        )
        return SweepScheduler(workers=workers).run([point])["point"]

    onchip, all_zero = _count_coverage(
        decoder or CliqueDecoder(code, stype),
        noise,
        measurement_rounds,
        num_cycles,
        make_rng(rng),
        batch_size,
    )
    return CoverageResult(
        physical_error_rate=noise.data_error_rate,
        code_distance=code.distance,
        measurement_rounds=measurement_rounds,
        cycles=num_cycles,
        onchip_cycles=onchip,
        all_zero_cycles=all_zero,
    )


__all__ = [
    "CoverageKernel",
    "CoverageResult",
    "DEFAULT_SHARD_CYCLES",
    "resolve_coverage_config",
    "sample_complex_words",
    "simulate_clique_coverage",
]
