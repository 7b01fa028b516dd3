"""Full memory (lifetime) experiments for logical-error-rate estimation (Fig. 14).

One trial simulates ``rounds`` noisy measurement rounds of a single logical
qubit held in memory, followed by a final perfectly-read round (the standard
convention that lets every detection event be matched):

1. every round injects fresh data errors and measurement flips;
2. the accumulated error state determines the true syndrome, which is
   recorded with the round's measurement flips applied;
3. the decoder under test receives the full detection-event history and
   returns a correction;
4. the trial fails when the residual error (accumulated XOR correction)
   anticommutes with the logical operator.

The same harness runs the MWPM baseline and the Clique+MWPM cascade
(:class:`~repro.clique.cascade.DecoderCascade`), which is exactly the
comparison in Fig. 14.

Two engines share this harness's contract, selected with the ``engine``
argument of :func:`run_memory_experiment`:

* ``"loop"`` — the per-trial reference path below, kept as the correctness
  oracle;
* ``"batch"`` (default) — the bit-packed vectorised engine of
  :mod:`repro.simulation.batch`, bit-identical to the loop under a fixed
  seed.

Both engines draw one noise stream: the 2048-trial blocks of
:meth:`~repro.noise.models.NoiseModel.sample_error_blocks`.  The batch engine
ORs each block's error positions into bitplanes; the loop scatters them into
per-trial ``(rounds, qubits)`` arrays (:func:`trial_error_histories`) and
runs :func:`run_memory_trial` on each trial.

Sharded runs — every stored Fig. 14 point — are
:func:`~repro.simulation.scheduler.memory_point` runs of
:class:`~repro.simulation.scheduler.SweepScheduler`; they follow their own
per-shard RNG streams (see the seeding contract of
:mod:`repro.simulation.shard`) rather than the loop/batch stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoders.base import Decoder
from repro.exceptions import ConfigurationError
from repro.noise.events import vector_to_errors
from repro.noise.models import NoiseModel, uses_block_sampler
from repro.noise.rng import make_rng
from repro.simulation.monte_carlo import wilson_interval
from repro.syndrome.history import SyndromeHistory
from repro.types import StabilizerType


@dataclass(frozen=True)
class MemoryExperimentResult:
    """Logical-error-rate estimate from a batch of memory-experiment trials.

    The ``tier_*`` fields are populated when the decoder under test is a
    :class:`~repro.clique.cascade.DecoderCascade` (tier 0 is the on-chip
    Clique tier, tier 1 the off-chip decoder) and stay empty for flat
    decoders:

    * ``tier_trials`` — ``(on-chip trials, off-chip trials)``: trials decoded
      entirely on-chip, and trials that shipped at least one round off-chip
      (sums to ``trials``);
    * ``tier_rounds`` — ``(on-chip rounds, off-chip rounds)``: the off-chip
      entry is the bandwidth in rounds.

    The fault-provenance fields record how a scheduled run
    (:func:`~repro.simulation.scheduler.memory_point`) had to degrade to
    produce the estimate (see :mod:`repro.faults`): ``engine_degraded``
    flags a run whose process pool could not be constructed and fell back to
    sequential in-process execution (counts unaffected, wall-clock scaling
    lost); ``skipped_shards`` / ``skipped_trials`` record shards dropped
    under ``on_exhausted="skip"``, in which case ``trials`` already counts
    only the trials that actually ran.  A result with ``skipped_trials > 0``
    is *incomplete* — it estimates the same rate from fewer samples — and is
    deliberately never cached by :class:`~repro.store.SweepCache`.  The
    in-process engines always leave them at their defaults.
    """

    physical_error_rate: float
    code_distance: int
    rounds: int
    trials: int
    logical_failures: int
    decoder_name: str
    onchip_rounds: int = 0
    total_rounds: int = 0
    tier_names: tuple[str, ...] = ()
    tier_trials: tuple[int, ...] = ()
    tier_rounds: tuple[int, ...] = ()
    engine_degraded: bool = False
    skipped_shards: int = 0
    skipped_trials: int = 0

    def __post_init__(self) -> None:
        # Store round-trips decode JSON arrays as lists; normalise so
        # computed and store-loaded results compare (and hash) identically.
        object.__setattr__(self, "tier_names", tuple(self.tier_names))
        object.__setattr__(self, "tier_trials", tuple(int(n) for n in self.tier_trials))
        object.__setattr__(self, "tier_rounds", tuple(int(n) for n in self.tier_rounds))

    @property
    def logical_error_rate(self) -> float:
        return self.logical_failures / self.trials if self.trials else 0.0

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return wilson_interval(self.logical_failures, self.trials)

    @property
    def onchip_round_fraction(self) -> float:
        """Fraction of measurement rounds resolved on-chip (hierarchical decoders only)."""
        if self.total_rounds == 0:
            return 0.0
        return self.onchip_rounds / self.total_rounds

    @property
    def offchip_trial_fraction(self) -> float:
        """Fraction of trials that shipped any round off-chip (cascades only)."""
        if not self.trials or not self.tier_trials:
            return 0.0
        return self.tier_trials[1] / self.trials

    @property
    def offchip_rounds_per_trial(self) -> float:
        """Average rounds shipped off-chip per trial — the off-chip bandwidth
        in rounds (cascades only)."""
        if not self.trials or not self.tier_rounds:
            return 0.0
        return self.tier_rounds[1] / self.trials


def trial_error_histories(
    code: RotatedSurfaceCode,
    stype: StabilizerType,
    noise: NoiseModel,
    trials: int,
    rounds: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each trial's ``(data_errors, flips)``, shapes ``(rounds, qubits)``.

    The loop engine's draw: the blocks of
    :meth:`~repro.noise.models.NoiseModel.sample_error_blocks`, each
    position ``(round, qubit, trial)`` scattered into trial ``trial``'s
    arrays.  A noise model that overrides a sampling hook (see
    :func:`~repro.noise.models.uses_block_sampler`) draws one trial at a time
    through its own :meth:`~repro.noise.models.NoiseModel.sample_history`.
    """
    if not uses_block_sampler(noise):
        for _ in range(trials):
            data_errors, flips = noise.sample_history(code, stype, 1, rounds, rng)
            yield data_errors[0], flips[0]
        return
    num_data = code.num_data_qubits
    num_ancillas = code.num_ancillas_of_type(stype)
    for block, data, flips in noise.sample_error_blocks(code, stype, trials, rounds, rng):
        data_errors = np.zeros((block, rounds, num_data), dtype=np.uint8)
        round_index, qubit, trial = np.unravel_index(data, (rounds, num_data, block))
        data_errors[trial, round_index, qubit] = 1
        measurement_flips = np.zeros((block, rounds, num_ancillas), dtype=np.uint8)
        round_index, ancilla, trial = np.unravel_index(
            flips, (rounds, num_ancillas, block)
        )
        measurement_flips[trial, round_index, ancilla] = 1
        yield from zip(data_errors, measurement_flips)


def run_memory_trial(
    code: RotatedSurfaceCode,
    stype: StabilizerType,
    decoder: Decoder,
    data_errors: np.ndarray,
    flips: np.ndarray,
) -> tuple[bool, dict]:
    """Run one memory-experiment trial on its sampled noise; return (logical failure?, metadata).

    ``data_errors`` (``(rounds, num_data_qubits)``) holds each round's fresh
    data errors and ``flips`` (``(rounds, num_ancillas)``) its measurement
    flips, as :func:`trial_error_histories` yields them.
    """
    parity_check = code.parity_check(stype)
    num_ancillas = code.num_ancillas_of_type(stype)
    history = SyndromeHistory(num_ancillas)
    accumulated = np.zeros(code.num_data_qubits, dtype=np.uint8)

    for round_errors, round_flips in zip(data_errors, flips):
        accumulated ^= round_errors
        true_syndrome = (parity_check @ accumulated) % 2
        history.record(true_syndrome ^ round_flips)
    # Final round with perfect readout so every detection event can be matched.
    history.record((parity_check @ accumulated) % 2)

    result = decoder.decode(history.detection_matrix())
    correction = np.zeros(code.num_data_qubits, dtype=np.uint8)
    data_index = code.data_index
    for qubit in result.correction:
        correction[data_index[qubit]] ^= 1
    residual = accumulated ^ correction
    residual_set = vector_to_errors(residual, code.data_qubits)
    failed = code.is_logical_error(residual_set, stype)
    return failed, dict(result.metadata)


def run_memory_experiment(
    code: RotatedSurfaceCode,
    noise: NoiseModel,
    decoder_factory: Callable[[RotatedSurfaceCode, StabilizerType], Decoder],
    trials: int,
    rounds: int | None = None,
    stype: StabilizerType = StabilizerType.X,
    rng: np.random.Generator | int | None = None,
    decoder_name: str | None = None,
    engine: str = "batch",
    chunk_trials: int | None = None,
) -> MemoryExperimentResult:
    """Estimate the logical error rate of a decoder with in-process Monte-Carlo trials.

    Args:
        code: the surface code instance.
        noise: noise model (the paper uses symmetric phenomenological noise).
        decoder_factory: builds the decoder under test for ``(code, stype)``;
            a factory is taken rather than an instance so the harness can be
            reused across codes in parameter sweeps.
        trials: number of independent memory experiments.
        rounds: noisy measurement rounds per trial (defaults to the code
            distance, the standard choice).
        stype: which error species to track (the other is symmetric).
        rng: seed or generator.
        decoder_name: label for reports (defaults to the class name).
        engine: ``"batch"`` (default) runs the vectorised engine of
            :mod:`repro.simulation.batch`; ``"loop"`` runs the per-trial
            reference path (both bit-identical under the same seed).
        chunk_trials: trials per vectorised chunk of the batch engine.
    """
    if engine == "batch":
        # Imported lazily to avoid a circular import (batch.py builds this
        # module's MemoryExperimentResult).
        from repro.simulation.batch import run_memory_experiment_batch

        kwargs = {} if chunk_trials is None else {"chunk_trials": chunk_trials}
        return run_memory_experiment_batch(
            code,
            noise,
            decoder_factory,
            trials=trials,
            rounds=rounds,
            stype=stype,
            rng=rng,
            decoder_name=decoder_name,
            **kwargs,
        )
    if engine != "loop":
        raise ConfigurationError(f"engine must be 'batch' or 'loop', got {engine!r}")
    if chunk_trials is not None:
        raise ConfigurationError("chunk_trials is only meaningful for engine='batch'")

    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if rounds is None:
        rounds = code.distance
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds}")

    generator = make_rng(rng)
    decoder = decoder_factory(code, stype)
    tier_names = tuple(getattr(decoder, "tier_names", ()) or ())
    failures = 0
    onchip_rounds = 0
    total_rounds = 0
    offchip_trials = 0
    histories = trial_error_histories(code, stype, noise, trials, rounds, generator)
    for data_errors, flips in histories:
        failed, metadata = run_memory_trial(code, stype, decoder, data_errors, flips)
        failures += int(failed)
        if "num_offchip_rounds" in metadata and "num_rounds" in metadata:
            offchip = metadata["num_offchip_rounds"]
            onchip_rounds += metadata["num_rounds"] - offchip
            total_rounds += metadata["num_rounds"]
            offchip_trials += int(offchip > 0)

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
        tier_trials=(trials - offchip_trials, offchip_trials) if tier_names else (),
        tier_rounds=(
            (onchip_rounds, total_rounds - onchip_rounds) if tier_names else ()
        ),
    )


__all__ = [
    "MemoryExperimentResult",
    "trial_error_histories",
    "run_memory_trial",
    "run_memory_experiment",
]
