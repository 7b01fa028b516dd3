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

There is one way to run it: every coverage measurement — a single
:func:`simulate_clique_coverage` call or a figure sweep — is a
:class:`~repro.simulation.scheduler.SweepScheduler` run of
:class:`CoverageKernel` shards, built from the same resolved config
(:func:`resolve_coverage_config`) that keys the result store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro import bitplane
from repro.clique.decoder import CliqueDecoder, get_clique_decoder
from repro.clique.measurement_filter import check_measurement_rounds
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.exceptions import ConfigurationError
from repro.noise.models import NoiseModel
from repro.simulation.cycles import sample_cycle_planes
from repro.simulation.monte_carlo import until_wilson, wilson_interval
from repro.simulation.scheduler import SweepPoint, SweepScheduler, coverage_point
from repro.simulation.shard import AUTO_CHUNK, _resolve_workers, resolve_auto_chunk
from repro.types import StabilizerType

#: Cycles per shard of a coverage run: small enough that a Fig. 11-size
#: budget (20k cycles) still yields several shards to spread over a pool,
#: large enough to amortise per-shard decoder construction.
DEFAULT_SHARD_CYCLES = 5_000

#: Work (cycles x distance**2, summed over a run's points) below which a
#: coverage run with ``workers=None`` stays in-process instead of starting
#: a pool of ``os.cpu_count()`` workers.  A shard costs ~15 ns per
#: cycle x distance**2.  The threshold was set when every run forked its own
#: pool (about 70 ms with shipping, 2-vCPU x86 host): below ~1e7 (~150 ms of
#: kernel time) one worker finished first, fig16 at its default 20k cycles
#: (7.4e6) in 1.01 s in-process vs 1.12 s on a pool, fig11's default grid
#: (1.4e8) in 2.0 s vs 1.35 s.  A process now keeps its pool warm between
#: runs, which makes a repeated pooled run cheaper, but the value stays on
#: purpose: it decides which runs fork a pool at all, so a one-shot run such
#: as fig16's default stays in-process, and for ``chunk_cycles="auto"`` runs
#: it sets the resolved shard size through :func:`coverage_workers`, hence
#: the store keys.
POOL_MIN_WORK = 10_000_000


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

    The coverage body behind :class:`CoverageKernel`, hence every coverage
    run.  The cycles come from
    :func:`~repro.simulation.cycles.sample_cycle_planes`, Fig. 4's
    draw-and-pack step, with the persistence-filtered flip rate
    ``q ** measurement_rounds``; signatures are XOR-parity syndromes XOR
    the flips, and the Clique decision runs word-wise.

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
    data_planes, flip_planes = sample_cycle_planes(
        clique.code,
        clique.stabilizer_type,
        noise,
        noise.measurement_error_rate**measurement_rounds,
        cycles,
        generator,
    )
    signatures = packed_check.syndromes(data_planes[np.newaxis])[0] ^ flip_planes
    return (
        clique.complex_any_packed(signatures),
        np.bitwise_or.reduce(signatures, axis=0),
    )


@dataclass(frozen=True)
class CoverageKernel:
    """Picklable coverage shard kernel (see :func:`~repro.simulation.coverage_point`).

    Partial results are ``(onchip_cycles, all_zero_cycles, cycles)`` count
    tuples, merged by the default elementwise sum.  A call samples its cycles
    in ``batch_size`` batches, one :func:`sample_complex_words` draw each,
    and popcounts the negated complex/active words under the batch's trial
    mask, so padding cycles never count.  The kernel ships as a few hundred
    bytes: the code pickles as its distance (each worker resolves it from its
    own :func:`~repro.codes.rotated_surface.get_code` cache), and every
    shard takes its Clique decoder and packed parity check from the
    worker's per-process caches
    (:func:`~repro.clique.decoder.get_clique_decoder`,
    :func:`~repro.bitplane.get_packed_parity_check`), so a worker builds
    them at most once per ``(distance, stype)``.
    """

    code: RotatedSurfaceCode
    noise: NoiseModel
    stype: StabilizerType = StabilizerType.X
    measurement_rounds: int = 2
    batch_size: int = 50_000

    def __post_init__(self) -> None:
        check_measurement_rounds(self.measurement_rounds)
        if self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {self.batch_size}"
            )

    def __call__(
        self, num_cycles: int, rng: np.random.Generator
    ) -> tuple[int, int, int]:
        clique = get_clique_decoder(self.code.distance, self.stype)
        packed_check = bitplane.get_packed_parity_check(self.code.distance, self.stype)
        onchip = 0
        all_zero = 0
        for start in range(0, num_cycles, self.batch_size):
            batch = min(self.batch_size, num_cycles - start)
            complex_words, active_words = sample_complex_words(
                clique, packed_check, self.noise, self.measurement_rounds, batch, rng
            )
            mask = bitplane.trial_mask_words(batch)
            onchip += bitplane.popcount(~complex_words & mask)
            all_zero += bitplane.popcount(~active_words & mask)
        return onchip, all_zero, num_cycles


def _coverage_successes(counts: tuple[int, int, int]) -> int:
    """Tracked proportion for adaptive coverage runs: the on-chip count."""
    return counts[0]


def coverage_workers(
    workers: int | None, points: Iterable[tuple[int, int]]
) -> int:
    """The worker count of a coverage run over ``(cycles, distance)`` points.

    A given ``workers`` is used as is.  ``None`` picks from the run's work,
    ``sum(cycles * distance**2)``: one in-process worker below
    :data:`POOL_MIN_WORK`, else ``os.cpu_count()``.  Both the scheduler and
    ``chunk_cycles="auto"`` use this count.  It never changes a count.
    """
    if workers is not None:
        return _resolve_workers(workers)
    work = sum(cycles * distance**2 for cycles, distance in points)
    return 1 if work < POOL_MIN_WORK else _resolve_workers(None)


def _resolve_chunk(
    chunk_cycles: "int | str | None",
    num_cycles: int,
    workers: int | None,
    distance: int,
) -> int:
    """One chunk-size resolution for the simulator and the keying contract.

    ``"auto"`` picks the shard size from the budget, the worker count the
    run uses (:func:`coverage_workers`), and distance
    (:func:`repro.simulation.shard.resolve_auto_chunk`); the store key
    records the resolved integer, never the machine-dependent spelling.
    """
    if chunk_cycles == AUTO_CHUNK:
        return resolve_auto_chunk(
            num_cycles,
            coverage_workers(workers, [(num_cycles, distance)]),
            distance,
            default=DEFAULT_SHARD_CYCLES,
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
    model.  The resolved shard size is stream-determining, and so is the
    kernel's batch size (splitting a shard into batches interleaves the
    data-error and measurement-flip draws differently).  ``workers`` enters
    only through ``chunk_cycles="auto"``, as the resolved integer.  The
    config is also what the run is built from (:func:`coverage_point_for`),
    so the key and the streams cannot drift apart.
    """
    chunk = _resolve_chunk(chunk_cycles, num_cycles, workers, distance)
    if target_ci_width is None:
        # min_cycles is adaptive-only (the simulator rejects it otherwise).
        resolved_min = None
    elif min_cycles is not None:
        resolved_min = min_cycles
    else:
        # The adaptive default for the Wilson floor: one shard's worth.
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
        # Every coverage run is sharded; the constant entry keeps stores
        # written when an unsharded path still existed byte-compatible.
        "sharded": True,
        "chunk_cycles": chunk,
        "target_ci_width": target_ci_width,
        "min_cycles": resolved_min,
        # The kernel's fixed batch size; stores written when it was a knob
        # keyed it here, so the entry stays.
        "batch_size": CoverageKernel.batch_size,
    }


def coverage_point_for(
    point_id: str,
    code: RotatedSurfaceCode,
    noise: NoiseModel,
    config: dict[str, object],
    seed: int | None,
    checkpoint: object | None = None,
    on_complete: Callable[[CoverageResult], None] | None = None,
) -> SweepPoint:
    """The sweep point that measures a :func:`resolve_coverage_config` config.

    ``code`` and ``noise`` must be the ones the config was resolved from.  A
    config with a ``target_ci_width`` becomes an adaptive point that stops
    once the Wilson interval on the coverage is at most that wide
    (``min_cycles`` floor, ``cycles`` budget cap).
    """
    width = config["target_ci_width"]
    stop = (
        until_wilson(
            width, min_trials=config["min_cycles"], max_trials=config["cycles"]
        )
        if width is not None
        else None
    )
    return coverage_point(
        point_id,
        code,
        noise,
        cycles=config["cycles"],
        seed=seed,
        measurement_rounds=config["measurement_rounds"],
        stype=StabilizerType(config["stype"]),
        batch_size=config["batch_size"],
        chunk_cycles=config["chunk_cycles"],
        stop=stop,
        checkpoint=checkpoint,
        on_complete=on_complete,
    )


def simulate_clique_coverage(
    code: RotatedSurfaceCode,
    noise: NoiseModel,
    num_cycles: int,
    stype: StabilizerType = StabilizerType.X,
    measurement_rounds: int = 2,
    rng: int | None = None,
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

    The point runs as a one-point sweep of
    :class:`~repro.simulation.scheduler.SweepScheduler` in shards of
    ``chunk_cycles`` cycles (default :data:`DEFAULT_SHARD_CYCLES`).  ``rng``
    is an integer seed (or ``None`` for fresh entropy); a ready generator is
    rejected, since its state cannot be split across shards.  The counts
    are deterministic per ``(seed, chunk_cycles)`` — equal to running
    :class:`CoverageKernel` once per shard under the ``shard_rng(seed, i)``
    contract and summing — and never depend on ``workers``, which defaults
    to one in-process worker for small runs and ``os.cpu_count()`` for large
    ones (:func:`coverage_workers`).

    Adaptive allocation: ``target_ci_width`` stops spawning shards once the
    Wilson interval on the coverage proportion is at most that wide
    (``min_cycles`` floor, ``num_cycles`` budget cap); the result's
    ``cycles`` field records what was actually consumed.  ``checkpoint``
    (adaptive only) enables per-wave mid-point resume — see
    :class:`repro.simulation.scheduler.SweepPoint`.

    ``chunk_cycles="auto"`` resolves the shard size from the budget, worker
    count, and distance (:func:`repro.simulation.shard.resolve_auto_chunk`).
    """
    if num_cycles <= 0:
        raise ConfigurationError(f"num_cycles must be positive, got {num_cycles}")
    check_measurement_rounds(measurement_rounds)
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
    workers = coverage_workers(workers, [(num_cycles, code.distance)])
    config = resolve_coverage_config(
        num_cycles,
        noise,
        code.distance,
        stype,
        measurement_rounds,
        workers,
        chunk_cycles,
        target_ci_width,
        min_cycles,
    )
    point = coverage_point_for("point", code, noise, config, rng, checkpoint)
    return SweepScheduler(workers=workers).run([point])["point"]


__all__ = [
    "CoverageKernel",
    "CoverageResult",
    "DEFAULT_SHARD_CYCLES",
    "POOL_MIN_WORK",
    "coverage_point_for",
    "coverage_workers",
    "resolve_coverage_config",
    "sample_complex_words",
    "simulate_clique_coverage",
]
