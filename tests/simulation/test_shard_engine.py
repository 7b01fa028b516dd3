"""Determinism tests for the sharded multiprocess Monte-Carlo engine.

The sharded engine's contract is weaker than batch-vs-loop bit-identity (each
shard owns an independent child RNG stream) but just as exact: for a fixed
``(seed, chunk_trials)`` the merged counts are fully determined — independent
of the worker count, of whether the shards run in-process or in a pool, and
equal to running the kernel (the batch engine, for memory experiments) once
per shard with ``shard_rng(seed, shard_index)`` and summing.  Every sharded
run goes through :class:`~repro.simulation.SweepScheduler`; the manual
per-shard merge is the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clique.cascade import DecoderCascade
from repro.codes.rotated_surface import get_code
from repro.exceptions import ConfigurationError
from repro.noise.models import PhenomenologicalNoise
from repro.noise.rng import resolve_entropy, shard_rng
from repro.simulation.batch import run_memory_experiment_batch
from repro.simulation.coverage import CoverageKernel, simulate_clique_coverage
from repro.simulation.memory import run_memory_experiment
from repro.simulation.scheduler import SweepScheduler, memory_point
from repro.simulation.shard import plan_shards
from repro.types import StabilizerType

from offchip_tiers import READY_TIERS, ReadyTierCascade
from shard_kernels import BernoulliKernel, run_point, shard_oracle


# Sharded workers rebuild the decoder, so factories must be module-level
# (picklable) callables.
def _hierarchical(code, stype):
    return DecoderCascade(code, stype, tiers=("clique", "mwpm"))


class TestGenericRunner:
    def test_merged_counts_equal_manual_per_shard_runs(self):
        kernel = BernoulliKernel(0.3)
        seed, chunk = 13, 250
        outcome = run_point(kernel, 1100, seed, chunk)
        manual = sum(
            kernel(size, shard_rng(seed, index))[0]
            for index, size in enumerate(plan_shards(1100, chunk))
        )
        assert outcome.trials == outcome.value[1] == 1100
        assert outcome.value[0] == manual
        assert outcome.value == shard_oracle(kernel, 1100, seed, chunk)

    def test_workers_do_not_affect_merged_result(self):
        results = [
            run_point(BernoulliKernel(0.2), 900, 5, 200, workers=w).value
            for w in (1, 2, 4)
        ]
        assert results[1:] == results[:-1]

    def test_custom_merge_is_used(self):
        best = run_point(
            BernoulliKernel(0.5),
            600,
            3,
            200,
            merge=lambda a, b: a if a[0] >= b[0] else b,
        ).value
        per_shard = [
            BernoulliKernel(0.5)(size, shard_rng(3, index))
            for index, size in enumerate(plan_shards(600, 200))
        ]
        assert best[0] == max(counts[0] for counts in per_shard)

    def test_generator_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            run_point(BernoulliKernel(0.1), 100, np.random.default_rng(1), 50)


class TestShardedCoverage:
    @pytest.mark.parametrize("distance", [5, 7])
    def test_matches_per_shard_kernel_runs(self, distance):
        # The sharded coverage merge must equal running the kernel once per
        # shard with the contract's generators and summing the counts.
        code = get_code(distance)
        noise = PhenomenologicalNoise(5e-3)
        seed, chunk, cycles = 31, 1500, 5000
        sharded = simulate_clique_coverage(
            code, noise, cycles, rng=seed, workers=1, chunk_cycles=chunk
        )
        kernel = CoverageKernel(code, noise, StabilizerType.X, 2)
        onchip = all_zero = 0
        for index, size in enumerate(plan_shards(cycles, chunk)):
            shard_onchip, shard_zero, shard_cycles = kernel(size, shard_rng(seed, index))
            assert shard_cycles == size
            onchip += shard_onchip
            all_zero += shard_zero
        assert sharded.cycles == cycles
        assert sharded.onchip_cycles == onchip
        assert sharded.all_zero_cycles == all_zero

    def test_workers_do_not_affect_coverage(self, code_d5):
        noise = PhenomenologicalNoise(1e-2)
        single, pooled = [
            simulate_clique_coverage(
                code_d5, noise, 6000, rng=5, workers=workers, chunk_cycles=1000
            )
            for workers in (1, 4)
        ]
        assert single.onchip_cycles == pooled.onchip_cycles
        assert single.all_zero_cycles == pooled.all_zero_cycles

    def test_min_cycles_without_width_target_rejected(self, code_d3):
        # A sampling floor only applies to adaptive runs; silently ignoring
        # it would suggest it was enforced.
        with pytest.raises(ConfigurationError):
            simulate_clique_coverage(
                code_d3,
                PhenomenologicalNoise(1e-2),
                1000,
                rng=1,
                workers=1,
                min_cycles=500,
            )


class TestShardPlan:
    def test_plan_depends_only_on_trials_and_chunk(self):
        assert plan_shards(1000, 400) == [400, 400, 200]
        assert plan_shards(800, 400) == [400, 400]
        assert plan_shards(5, 400) == [5]

    def test_plan_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            plan_shards(0, 400)
        with pytest.raises(ConfigurationError):
            plan_shards(100, 0)


class TestShardRng:
    def test_stream_depends_only_on_seed_and_index(self):
        a = shard_rng(7, 3).random(4)
        b = shard_rng(7, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, shard_rng(7, 4).random(4))
        assert not np.array_equal(a, shard_rng(8, 3).random(4))

    def test_matches_seed_sequence_spawn(self):
        spawned = np.random.SeedSequence(7).spawn(5)
        for index in (0, 2, 4):
            expected = np.random.default_rng(spawned[index]).random(4)
            assert np.array_equal(shard_rng(7, index).random(4), expected)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            shard_rng(7, -1)

    def test_resolve_entropy_pins_none_once(self):
        assert resolve_entropy(123) == 123
        drawn = resolve_entropy(None)
        assert isinstance(drawn, int)


class TestShardedDeterminism:
    def test_workers_do_not_affect_results(self, code_d3):
        noise = PhenomenologicalNoise(2e-2)
        point = memory_point(
            "p", code_d3, noise, _hierarchical, trials=900, seed=17, chunk_trials=250
        )
        results = [
            SweepScheduler(workers=workers).run([point])["p"] for workers in (1, 2, 4)
        ]
        for result in results[1:]:
            assert result.logical_failures == results[0].logical_failures
            assert result.onchip_rounds == results[0].onchip_rounds
            assert result.total_rounds == results[0].total_rounds

    def test_matches_per_shard_batch_runs(self, code_d5):
        # The sharded merge must equal running the batch engine shard by
        # shard with the contract's generators and summing the counts.
        noise = PhenomenologicalNoise(1e-2)
        seed, chunk = 23, 300
        point = memory_point(
            "p", code_d5, noise, _hierarchical, trials=1000, seed=seed,
            chunk_trials=chunk,
        )
        sharded = SweepScheduler(workers=1).run([point])["p"]
        failures = onchip = total = 0
        for index, shard_trials in enumerate(plan_shards(1000, chunk)):
            shard = run_memory_experiment_batch(
                code_d5,
                noise,
                _hierarchical,
                trials=shard_trials,
                rng=shard_rng(seed, index),
            )
            failures += shard.logical_failures
            onchip += shard.onchip_rounds
            total += shard.total_rounds
        assert sharded.logical_failures == failures
        assert sharded.onchip_rounds == onchip
        assert sharded.total_rounds == total

    def test_repeated_runs_are_identical(self, code_d3):
        noise = PhenomenologicalNoise(1e-2)
        first, second = (
            SweepScheduler()
            .run([memory_point("p", code_d3, noise, _hierarchical, trials=500, seed=3)])
            ["p"]
            for _ in range(2)
        )
        assert first.logical_failures == second.logical_failures
        assert first.onchip_rounds == second.onchip_rounds

    def test_ready_offchip_tier_shards_identically(self, code_d3):
        # A ready off-chip tier travels to forked workers inside the cascade
        # factory and decodes there exactly as in the parent process.
        noise = PhenomenologicalNoise(2e-2)
        factory = ReadyTierCascade(READY_TIERS["bitmap-hook"])
        point = memory_point(
            "p", code_d3, noise, factory, trials=600, seed=11, chunk_trials=200
        )
        single = SweepScheduler(workers=1).run([point])["p"]
        pooled = SweepScheduler(workers=2).run([point])["p"]
        assert single.tier_names == ("clique", "BitmapHookMWPM")
        assert single.logical_failures == pooled.logical_failures
        assert single.onchip_rounds == pooled.onchip_rounds
        assert single.tier_trials == pooled.tier_trials


class TestShardedValidation:
    def test_generator_rng_is_rejected(self, code_d3):
        point = memory_point(
            "p",
            code_d3,
            PhenomenologicalNoise(1e-2),
            _hierarchical,
            trials=100,
            seed=np.random.default_rng(1),
        )
        with pytest.raises(ConfigurationError):
            SweepScheduler().run([point])

    @pytest.mark.parametrize(
        "kwargs, error",
        [({"engine": "sharded"}, ConfigurationError)]
        + [
            ({keyword: None}, TypeError)
            for keyword in (
                "workers",
                "adaptive",
                "checkpoint",
                "faults",
                "fault_report",
                "fault_injector",
            )
        ],
    )
    def test_in_process_runner_has_no_sharded_engine(self, code_d3, kwargs, error):
        # Sharded memory runs are memory_point + SweepScheduler runs only:
        # run_memory_experiment names its two engines and has none of the
        # scheduling keywords.
        with pytest.raises(error):
            run_memory_experiment(
                code_d3,
                PhenomenologicalNoise(1e-2),
                _hierarchical,
                trials=100,
                rng=1,
                **kwargs,
            )

    def test_invalid_workers_rejected(self, code_d3):
        point = memory_point(
            "p", code_d3, PhenomenologicalNoise(1e-2), _hierarchical, trials=100, seed=1
        )
        with pytest.raises(ConfigurationError):
            SweepScheduler(workers=0).run([point])

    def test_result_metadata_is_preserved(self, code_d3):
        point = memory_point(
            "p", code_d3, PhenomenologicalNoise(1e-2), _hierarchical, trials=120, seed=2
        )
        result = SweepScheduler(workers=1).run([point])["p"]
        assert result.trials == 120
        assert result.code_distance == 3
        assert result.rounds == 3
        assert result.decoder_name == "Cascade[clique,mwpm]"
