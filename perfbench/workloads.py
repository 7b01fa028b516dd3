"""The four workloads: entry-point calls, checks, gates and traced paths.

Each workload exposes the same surface to :mod:`perfbench.run`:

* ``call(seed)`` — one untraced call to the workload's public entry point;
* ``samples(result)`` — Monte-Carlo samples the call completed;
* ``check(result)`` — structural problems with one call's output;
* ``tally(result)`` — accumulate what the statistical gate compares;
* ``gates(seed, reference)`` — the exact and statistical correctness gate;
* ``counts(result)`` / ``traced_call(seed, recorder)`` — the traced path,
  rebuilt from public calls with a span at every layer boundary, whose
  counts must equal the untraced call's;
* ``layers(recorder, calls)`` — the per-layer metrics of a traced run.

Spans are recorded only from this file, around calls into the library; the
library itself is not modified.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import shutil
import time
from pathlib import Path

import numpy as np

from perfbench import params
from perfbench.harness import Recorder, nproc, percentile, poisson_upper_limit, two_proportion_z
from repro import bitplane
from repro.bandwidth.allocation import provision_for_percentile
from repro.bandwidth.stalling import StallSimulator
from repro.clique.cascade import DecoderCascade
from repro.clique.decoder import CliqueDecoder
from repro.codes.rotated_surface import get_code
from repro.decoders.base import Decoder
from repro.decoders.mwpm import MWPMDecoder
from repro.experiments.registry import run_experiment
from repro.faults import FaultReport, pool_construction_count
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import make_rng, point_seed
from repro.simulation.batch import DEFAULT_CHUNK_TRIALS, logical_support_bitmap
from repro.simulation.coverage import resolve_coverage_config, simulate_clique_coverage
from repro.simulation.memory import run_memory_experiment
from repro.simulation.scheduler import SweepScheduler, coverage_point
from repro.store import ResultStore, SweepCache
from repro.types import StabilizerType

X = StabilizerType.X

#: z-score beyond which a statistic disagrees with the stored reference.
#: Five standard errors: a correct build fails one check in ~1.7 million,
#: while a broken decoder moves these rates by hundreds of errors.
Z_LIMIT = 5.0

#: One-sided normal tail beyond :data:`Z_LIMIT`, used where the z-test
#: cannot be: a run fails a Poisson bound with this probability at most.
POISSON_TAIL = 0.5 * math.erfc(Z_LIMIT / math.sqrt(2.0))

#: 95% upper bound on the events behind a reference that saw none
#: ("rule of three": -ln 0.05 ~ 3 events per reference sample count).
ZERO_REFERENCE_EVENTS = -math.log(0.05)

#: Spawn key separating the gate's inputs from the timed calls' inputs.
GATE_KEY = 1_000_000


def _gate(name: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return name, bool(ok), detail


def _rate_gate(name: str, hits: int, trials: int, ref_hits: int, ref_trials: int):
    """A run's rate against the reference's.

    Two-sided z-test when the reference saw both outcomes.  When it saw only
    one, the z-test would tolerate dozens of the unseen outcome, so the run's
    count of it must instead stay within the Poisson limit at the rule-of-three
    upper bound on the reference's rate.
    """
    against = f"{hits}/{trials} vs reference {ref_hits}/{ref_trials}"
    if 0 < ref_hits < ref_trials:
        z = two_proportion_z(hits, trials, ref_hits, ref_trials)
        return _gate(name, abs(z) <= Z_LIMIT, f"{against} (z={z:+.2f})")
    unseen = hits if ref_hits == 0 else trials - hits
    limit = poisson_upper_limit(trials * ZERO_REFERENCE_EVENTS / ref_trials, POISSON_TAIL)
    return _gate(name, unseen <= limit, f"{against} (unseen outcome {unseen}, limit {limit})")


# ----------------------------------------------------------------------
# mem-lowp / mem-deep
# ----------------------------------------------------------------------
class TimedMWPM(Decoder):
    """Final cascade tier that times each MWPM call and counts its events."""

    def __init__(self, code, stype, recorder: Recorder) -> None:
        super().__init__(code, stype)
        self._inner = MWPMDecoder(code, stype)
        self._recorder = recorder

    @property
    def name(self) -> str:
        return "mwpm"

    def decode(self, detections):
        return self._inner.decode(detections)

    def decode_events_bitmap(self, rounds, ancillas):
        self._recorder.observe("decoders.mwpm_events", len(rounds))
        with self._recorder.span("decoders.mwpm"):
            return self._inner.decode_events_bitmap(rounds, ancillas)


class MemoryWorkload:
    """``run_memory_experiment(engine="batch")`` through ``clique,mwpm``."""

    uses_pool = False
    sample_unit = "memory trials"
    top_span = "simulation.batch"

    def __init__(self, config: dict) -> None:
        self.config = config
        self.code = get_code(config["distance"])
        self.noise = PhenomenologicalNoise(config["error_rate"])
        self.factory = functools.partial(DecoderCascade, tiers="clique,mwpm")
        self.trials = 0
        self.failures = 0
        self.offchip_trials = 0

    def _run(self, seed: int, trials: int, engine: str = "batch"):
        return run_memory_experiment(
            self.code,
            self.noise,
            self.factory,
            trials=trials,
            rounds=self.config["rounds"],
            rng=seed,
            engine=engine,
        )

    def call(self, seed: int):
        return self._run(seed, self.config["trials"])

    def samples(self, result) -> int:
        return result.trials

    def check(self, result) -> list[str]:
        problems = []
        if result.trials != self.config["trials"]:
            problems.append(f"trials {result.trials} != {self.config['trials']}")
        if sum(result.tier_trials) != result.trials:
            problems.append(f"tier trials {result.tier_trials} do not sum to {result.trials}")
        # Every trial ends with one perfectly read round after its noisy ones.
        if result.total_rounds != result.trials * (self.config["rounds"] + 1):
            problems.append(f"total rounds {result.total_rounds} != trials x (rounds + 1)")
        if not 0 <= result.logical_failures <= result.trials:
            problems.append(f"logical failures {result.logical_failures} out of range")
        if result.tier_names != ("clique", "mwpm"):
            problems.append(f"tier names {result.tier_names}")
        return problems

    def tally(self, result) -> None:
        self.trials += result.trials
        self.failures += result.logical_failures
        self.offchip_trials += result.tier_trials[1]

    def gates(self, seed: int, reference: dict) -> list:
        block_seed = point_seed(seed, GATE_KEY)
        block = self.config["gate_trials"]
        batch = self._run(block_seed, block)
        loop = self._run(block_seed, block, engine="loop")
        return [
            _gate("batch == loop", batch == loop, f"{block} trials: {batch.logical_failures} failures, tiers {batch.tier_trials}"),
            _rate_gate("logical error rate", self.failures, self.trials, reference["failures"], reference["trials"]),
            _rate_gate("off-chip trial rate", self.offchip_trials, self.trials, reference["offchip_trials"], reference["trials"]),
        ]

    @staticmethod
    def counts(result):
        return (
            result.logical_failures,
            result.onchip_rounds,
            result.total_rounds,
            tuple(result.tier_trials),
            tuple(result.tier_rounds),
        )

    def traced_call(self, seed: int, recorder: Recorder):
        """The batch engine's packed chunk loop, one span per layer."""
        code, noise, rounds = self.code, self.noise, self.config["rounds"]
        trials = self.config["trials"]
        with recorder.span("simulation.batch"):
            generator = make_rng(seed)
            with recorder.span("decoders.build"):
                decoder = DecoderCascade(code, X, tiers=("clique", TimedMWPM(code, X, recorder)))
            packed_check = bitplane.PackedParityCheck(code.parity_check(X).astype(np.int64))
            logical_planes = np.flatnonzero(logical_support_bitmap(code, X))
            failures = onchip_rounds = total_rounds = 0
            tier_trials = np.zeros(decoder.num_tiers, dtype=np.int64)
            tier_rounds = np.zeros(decoder.num_tiers, dtype=np.int64)
            remaining = trials
            while remaining > 0:
                chunk = min(DEFAULT_CHUNK_TRIALS, remaining)
                with recorder.span("simulation.batch"):
                    with recorder.span("noise.sample"):
                        data_planes, flip_planes = noise.sample_history_packed(
                            code, X, chunk, rounds, generator
                        )
                    accumulated = np.bitwise_xor.accumulate(data_planes, axis=0)
                    with recorder.span("bitplane.syndrome"):
                        true_syndromes = packed_check.syndromes(accumulated)
                    observed = np.concatenate(
                        [true_syndromes ^ flip_planes, true_syndromes[-1:]], axis=0
                    )
                    detections = observed.copy()
                    detections[1:] ^= observed[:-1]
                    with recorder.span("clique.triage"):
                        result = decoder.decode_batch_packed(detections, chunk)
                    residual = accumulated[-1] ^ result.corrections
                    failure_words = np.bitwise_xor.reduce(residual[logical_planes], axis=0)
                    failures += bitplane.popcount(
                        failure_words & bitplane.trial_mask_words(chunk)
                    )
                    onchip_rounds += int(result.onchip_rounds.sum())
                    total_rounds += int(result.total_rounds.sum())
                    tier_trials += result.tier_trials
                    tier_rounds += result.tier_rounds
                remaining -= chunk
        recorder.count("trials", trials)
        recorder.count("onchip_rounds", onchip_rounds)
        recorder.count("total_rounds", total_rounds)
        recorder.count("offchip_trials", int(tier_trials[1:].sum()))
        return (
            failures,
            onchip_rounds,
            total_rounds,
            tuple(int(n) for n in tier_trials),
            tuple(int(n) for n in tier_rounds),
        )

    def layers(self, recorder: Recorder, calls: int) -> dict[str, float]:
        own = recorder.self_times()
        events = recorder.samples.get("decoders.mwpm_events", [])
        counters = recorder.counters
        return {
            "noise.sample_s": own.get("noise.sample", 0.0) / calls,
            "bitplane.syndrome_s": own.get("bitplane.syndrome", 0.0) / calls,
            "simulation.batch_glue_s": own.get("simulation.batch", 0.0) / calls,
            "clique.triage_s": own.get("clique.triage", 0.0) / calls,
            "clique.onchip_round_frac": counters["onchip_rounds"] / counters["total_rounds"],
            "clique.offchip_trial_frac": counters["offchip_trials"] / counters["trials"],
            "decoders.build_s": own.get("decoders.build", 0.0) / calls,
            "decoders.mwpm_s": own.get("decoders.mwpm", 0.0) / calls,
            "decoders.mwpm_calls": len(events) / calls,
            "decoders.mwpm_events_p50": percentile(events, 50.0) if events else 0.0,
            "decoders.mwpm_events_p90": percentile(events, 90.0) if events else 0.0,
        }


# ----------------------------------------------------------------------
# cov-sweep
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TimedKernel:
    """Coverage shard kernel wrapper: times the real kernel in the worker and
    ships back a copy of the shard's generator so the parent can replay the
    same seeded batches stage by stage."""

    inner: object

    def __call__(self, num_cycles: int, rng):
        replay_rng = copy.deepcopy(rng)
        start = time.monotonic()
        onchip, all_zero, cycles = self.inner(num_cycles, rng)
        end = time.monotonic()
        record = (start, end, num_cycles, (onchip, all_zero), replay_rng)
        return onchip, all_zero, cycles, (record,)


class TimingStore(ResultStore):
    """Result store that times every ``put`` and ``get``."""

    def __init__(self, root, recorder: Recorder) -> None:
        super().__init__(root)
        self._recorder = recorder

    def put(self, key, result) -> None:
        with self._recorder.span("store.put"):
            super().put(key, result)

    def get(self, key):
        with self._recorder.span("store.get"):
            return super().get(key)


class CoverageSweepWorkload:
    """``run_experiment("fig11", ...)`` on ``nproc`` workers, fresh store per call."""

    uses_pool = True
    sample_unit = "decode cycles"
    top_span = "experiments.call"

    def __init__(self, config: dict, scratch: Path) -> None:
        self.config = config
        self.workers = nproc()
        self.scratch = scratch
        self.grid = [
            (rate, distance)
            for rate in config["error_rates"]
            for distance in config["distances"]
        ]
        self.cycles = {key: 0 for key in self.grid}
        self.onchip = {key: 0 for key in self.grid}
        self._serial = 0
        self._cliques: dict[tuple, CliqueDecoder] = {}

    def _fresh_store_dir(self) -> Path:
        self._serial += 1
        return self.scratch / f"store-{self._serial}"

    def _run(self, seed, store, **overrides):
        kwargs = {
            "cycles": self.config["cycles"],
            "seed": seed,
            "distances": self.config["distances"],
            "error_rates": self.config["error_rates"],
            "workers": self.workers,
            "chunk_cycles": "auto",
            "store": store,
        }
        kwargs.update(overrides)
        return run_experiment("fig11", **kwargs)

    def call(self, seed: int):
        store = self._fresh_store_dir()
        try:
            return self._run(seed, str(store))
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def samples(self, result) -> int:
        return sum(row["cycles"] for row in result.rows)

    def check(self, result) -> list[str]:
        problems = []
        keys = [(row["physical_error_rate"], row["code_distance"]) for row in result.rows]
        if keys != self.grid:
            problems.append(f"rows {keys} do not match the grid {self.grid}")
        for row in result.rows:
            if row["cycles"] != self.config["cycles"]:
                problems.append(f"row {row} cycles != {self.config['cycles']}")
            if not row["coverage_ci_low_pct"] <= row["coverage_pct"] <= row["coverage_ci_high_pct"]:
                problems.append(f"row {row} coverage outside its interval")
        return problems

    def tally(self, result) -> None:
        for row in result.rows:
            key = (row["physical_error_rate"], row["code_distance"])
            self.cycles[key] += row["cycles"]
            self.onchip[key] += round(row["coverage_pct"] * row["cycles"] / 100.0)

    def gates(self, seed: int, reference: dict) -> list:
        config = self.config
        point = {
            "cycles": config["cycles"],
            "seed": point_seed(seed, GATE_KEY),
            "distances": (config["gate_distance"],),
            "error_rates": (config["gate_error_rate"],),
            "chunk_cycles": config["gate_chunk_cycles"],
        }
        serial = self._run(store=None, **{**point, "workers": 1}).rows
        pooled = self._run(store=None, **{**point, "workers": self.workers}).rows
        gates = [
            _gate(
                f"workers=1 == workers={self.workers}",
                serial == pooled,
                f"d={config['gate_distance']} p={config['gate_error_rate']}: "
                f"coverage {serial[0]['coverage_pct']:.3f}% vs {pooled[0]['coverage_pct']:.3f}%",
            )
        ]
        for rate, distance in self.grid:
            ref = reference["points"][f"{rate}:{distance}"]
            gates.append(
                _rate_gate(
                    f"coverage p={rate} d={distance}",
                    self.onchip[(rate, distance)],
                    self.cycles[(rate, distance)],
                    ref["onchip"],
                    ref["cycles"],
                )
            )
        return gates

    @staticmethod
    def counts(result):
        return tuple(
            (row["physical_error_rate"], row["code_distance"], row["cycles"], row["coverage_pct"])
            for row in result.rows
        )

    def traced_call(self, seed: int, recorder: Recorder):
        """fig11's sweep rebuilt from public calls: ``coverage_point`` with a
        timing kernel, one :class:`SweepScheduler`, and a timing store."""
        config = self.config
        store_dir = self._fresh_store_dir()
        report = FaultReport()
        pools_before = pool_construction_count()
        try:
            with recorder.span("experiments.call"):
                cache = SweepCache(TimingStore(store_dir, recorder), "fig11")
                pending, keys, kernels = [], {}, {}
                for rate_index, rate in enumerate(config["error_rates"]):
                    noise = PhenomenologicalNoise(rate)
                    for distance_index, distance in enumerate(config["distances"]):
                        resolved = resolve_coverage_config(
                            config["cycles"], noise, distance,
                            workers=self.workers, chunk_cycles="auto",
                        )
                        base_seed = point_seed(seed, rate_index, distance_index)
                        if cache.lookup(resolved, base_seed) is not None:
                            raise RuntimeError("a fresh store returned a cached point")
                        point_id = f"{rate_index}:{distance_index}"
                        keys[point_id] = (rate, distance)
                        point = coverage_point(
                            point_id,
                            get_code(distance),
                            noise,
                            cycles=config["cycles"],
                            seed=base_seed,
                            chunk_cycles=resolved["chunk_cycles"],
                            on_complete=functools.partial(cache.finish, resolved, base_seed),
                        )
                        kernels[point_id] = point.kernel
                        pending.append(_timed_point(point))
                with recorder.span("scheduler.run") as sweep_index:
                    results = SweepScheduler(workers=self.workers, fault_report=report).run(pending)
            rows = []
            for point_id, (result, shards) in results.items():
                rate, distance = keys[point_id]
                for start, end, num_cycles, shard_counts, rng in shards:
                    recorder.add("coverage.shard", start, end, parent=sweep_index)
                    recorder.observe("coverage.shard_ms", (end - start) * 1e3)
                    if self._replay(recorder, kernels[point_id], num_cycles, rng) != shard_counts:
                        recorder.count("coverage.replay_mismatches")
                recorder.count("scheduler.shards", len(shards))
                rows.append((rate, distance, result.cycles, 100.0 * result.coverage))
            sweep = recorder.spans[sweep_index]
            recorder.count("scheduler.wall_s", sweep.duration)
            recorder.count("faults.pool_builds", pool_construction_count() - pools_before)
            recorder.count("faults.retries", report.retries)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        order = {key: index for index, key in enumerate(self.grid)}
        return tuple(sorted(rows, key=lambda row: order[(row[0], row[1])]))

    def _replay(self, recorder, kernel, num_cycles, rng) -> tuple[int, int]:
        """Re-run one shard's seeded batches in the parent, stage by stage.

        Mirrors the coverage kernel's batch body with public calls, reading
        code, noise, stabilizer type, measurement rounds and batch size from
        the point's own kernel; the caller checks the replayed ``(on-chip,
        all-zero)`` counts against the shard's own.
        """
        code, noise, stype = kernel.code, kernel.noise, kernel.stype
        if (code.distance, stype) not in self._cliques:
            self._cliques[(code.distance, stype)] = CliqueDecoder(code, stype)
        clique = self._cliques[(code.distance, stype)]
        parity_check = code.parity_check(stype).astype(np.int64)
        flip_rate = noise.measurement_error_rate**kernel.measurement_rounds
        onchip = all_zero = 0
        remaining = num_cycles
        while remaining > 0:
            batch = min(kernel.batch_size, remaining)
            with recorder.span("coverage.sample"):
                data_errors = noise.sample_data_matrix(code, batch, rng).astype(np.int64)
                flips = (
                    rng.random((batch, code.num_ancillas_of_type(stype))) < flip_rate
                ).astype(np.int64)
            with recorder.span("coverage.parity"):
                signatures = ((data_errors @ parity_check.T + flips) % 2).astype(np.uint8)
            with recorder.span("coverage.triage"):
                trivial = clique.is_trivial_batch(signatures)
            onchip += int(trivial.sum())
            all_zero += int((~signatures.any(axis=-1)).sum())
            remaining -= batch
        return onchip, all_zero

    def layers(self, recorder: Recorder, calls: int) -> dict[str, float]:
        own = recorder.self_times()
        counters = recorder.counters
        shard_ms = recorder.samples.get("coverage.shard_ms", [])
        puts = recorder.durations("store.put")
        shard_total = recorder.total("coverage.shard")
        return {
            "coverage.shard_s": shard_total / calls,
            "coverage.shard_ms_p50": percentile(shard_ms, 50.0),
            "coverage.shard_ms_p90": percentile(shard_ms, 90.0),
            "coverage.sample_s": own.get("coverage.sample", 0.0) / calls,
            "coverage.parity_s": own.get("coverage.parity", 0.0) / calls,
            "coverage.triage_s": own.get("coverage.triage", 0.0) / calls,
            "scheduler.busy_frac": shard_total / (self.workers * counters["scheduler.wall_s"]),
            "scheduler.idle_s": own.get("scheduler.run", 0.0) / calls,
            "scheduler.shards": counters["scheduler.shards"] / calls,
            "faults.pool_builds": counters["faults.pool_builds"] / calls,
            "faults.retries": counters["faults.retries"] / calls,
            "store.put_ms": 1e3 * sum(puts) / len(puts) if puts else 0.0,
            "store.writes": len(puts) / calls,
        }


def _timed_point(point):
    """Swap a coverage point's kernel for :class:`TimedKernel`; the merged
    value carries the shard records through to the finalised result."""
    finalize = point.finalize

    def finalize_timed(outcome):
        counts, shards = outcome.value[:3], outcome.value[3]
        return finalize(dataclasses.replace(outcome, value=counts)), shards

    return dataclasses.replace(
        point,
        kernel=TimedKernel(point.kernel),
        finalize=finalize_timed,
        on_complete=(lambda done: point.on_complete(done[0])) if point.on_complete else None,
    )


# ----------------------------------------------------------------------
# stall-sweep
# ----------------------------------------------------------------------
class StallSweepWorkload:
    """``run_experiment("fig16", ...)`` in one process."""

    uses_pool = False
    sample_unit = "link cycles"
    top_span = "experiments.call"

    def __init__(self, config: dict) -> None:
        self.config = config
        self.points = list(config["operating_points"])
        self.cycles = {point: 0 for point in self.points}
        self.offchip = {point: 0 for point in self.points}

    def call(self, seed: int):
        config = self.config
        return run_experiment(
            "fig16",
            operating_points=config["operating_points"],
            percentiles=config["percentiles"],
            num_logical_qubits=config["num_logical_qubits"],
            program_cycles=config["program_cycles"],
            coverage_cycles=config["coverage_cycles"],
            seed=seed,
        )

    def samples(self, result) -> int:
        program = self.config["program_cycles"]
        return sum(
            program + round(program * row["execution_time_increase_pct"] / 100.0)
            for row in result.rows
        )

    def check(self, result) -> list[str]:
        config = self.config
        problems = []
        if len(result.rows) != len(self.points) * len(config["percentiles"]):
            problems.append(f"{len(result.rows)} rows")
        for row in result.rows:
            if not row["completed"]:
                problems.append(f"provisioning at the {row['percentile']}th percentile did not complete: {row}")
        for rate, distance in self.points:
            capacities = [
                row["provisioned_decodes_per_cycle"]
                for row in result.rows
                if (row["physical_error_rate"], row["code_distance"]) == (rate, distance)
            ]
            if capacities != sorted(capacities):
                problems.append(f"capacity not monotone in percentile at p={rate} d={distance}")
        return problems

    def tally(self, result) -> None:
        coverage_cycles = self.config["coverage_cycles"]
        seen = set()
        for row in result.rows:
            point = (row["physical_error_rate"], row["code_distance"])
            if point in seen:
                continue
            seen.add(point)
            self.cycles[point] += coverage_cycles
            self.offchip[point] += round(row["offchip_rate_per_qubit"] * coverage_cycles)

    def gates(self, seed: int, reference: dict) -> list:
        config = self.config
        gate = run_experiment(
            "fig16",
            operating_points=config["gate_operating_points"],
            percentiles=config["gate_percentiles"],
            num_logical_qubits=config["num_logical_qubits"],
            program_cycles=config["gate_program_cycles"],
            coverage_cycles=config["gate_coverage_cycles"],
            seed=point_seed(seed, GATE_KEY),
        )
        gates = []
        floor = config["gate_min_slowdown"]
        for row in gate.rows:
            label = f"p={row['physical_error_rate']} d={row['code_distance']}"
            increase = row["execution_time_increase_pct"] / 100.0
            if row["percentile"] == 50.0:
                gates.append(
                    _gate(
                        f"mean provisioning diverges {label}",
                        not row["completed"] or increase >= floor,
                        f"completed={row['completed']} slowdown={increase:.1f}x (limit {floor:.0f}x)",
                    )
                )
            else:
                gates.append(
                    _gate(
                        f"{row['percentile']}th percentile completes {label}",
                        row["completed"],
                        f"slowdown={increase:.3f}x",
                    )
                )
        for rate, distance in config["gate_operating_points"]:
            ref = reference["points"][f"{rate}:{distance}"]
            gates.append(
                _rate_gate(
                    f"off-chip rate p={rate} d={distance}",
                    self.offchip[(rate, distance)],
                    self.cycles[(rate, distance)],
                    ref["offchip"],
                    ref["cycles"],
                )
            )
        return gates

    @staticmethod
    def counts(result):
        return tuple(
            (
                row["provisioned_decodes_per_cycle"],
                row["execution_time_increase_pct"],
                row["completed"],
            )
            for row in result.rows
        )

    def traced_call(self, seed: int, recorder: Recorder):
        """fig16's in-process path: coverage -> provisioning -> stall loop."""
        config = self.config
        rows = []
        with recorder.span("experiments.call"):
            for point_index, (rate, distance) in enumerate(self.points):
                code = get_code(distance)
                with recorder.span("coverage.point"):
                    coverage = simulate_clique_coverage(
                        code,
                        PhenomenologicalNoise(rate),
                        config["coverage_cycles"],
                        rng=point_seed(seed, point_index),
                    )
                offchip_rate = max(coverage.offchip_fraction, 1.0 / coverage.cycles)
                for percentile_index, level in enumerate(config["percentiles"]):
                    with recorder.span("bandwidth.provision"):
                        plan = provision_for_percentile(
                            config["num_logical_qubits"], offchip_rate, level
                        )
                    simulator = StallSimulator(plan, seed=point_seed(seed, point_index, percentile_index))
                    with recorder.span("bandwidth.stall"):
                        result = simulator.run(config["program_cycles"])
                    recorder.count("bandwidth.cycles", result.total_cycles)
                    rows.append(
                        (
                            plan.decodes_per_cycle,
                            100.0 * result.execution_time_increase,
                            result.completed,
                        )
                    )
        return tuple(rows)

    def layers(self, recorder: Recorder, calls: int) -> dict[str, float]:
        own = recorder.self_times()
        stall = own.get("bandwidth.stall", 0.0)
        return {
            "coverage.point_s": own.get("coverage.point", 0.0) / calls,
            "bandwidth.provision_s": own.get("bandwidth.provision", 0.0) / calls,
            "bandwidth.stall_s": stall / calls,
            "bandwidth.ns_per_cycle": 1e9 * stall / recorder.counters["bandwidth.cycles"],
        }


def make_workload(name: str, scratch: Path):
    if name == "mem-lowp":
        return MemoryWorkload(params.MEM_LOWP)
    if name == "mem-deep":
        return MemoryWorkload(params.MEM_DEEP)
    if name == "cov-sweep":
        return CoverageSweepWorkload(params.COV_SWEEP, scratch)
    if name == "stall-sweep":
        return StallSweepWorkload(params.STALL_SWEEP)
    raise ValueError(f"unknown workload {name!r}")
