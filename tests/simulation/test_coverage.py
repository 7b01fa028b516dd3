"""Tests for Clique coverage measurement (Figs. 11-12)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.noise.models import PhenomenologicalNoise
from repro.simulation.coverage import CoverageResult, simulate_clique_coverage


class TestCoverageResult:
    def test_basic_fractions(self):
        result = CoverageResult(
            physical_error_rate=0.01,
            code_distance=5,
            measurement_rounds=2,
            cycles=1000,
            onchip_cycles=950,
            all_zero_cycles=700,
        )
        assert result.coverage == pytest.approx(0.95)
        assert result.offchip_fraction == pytest.approx(0.05)
        assert result.offchip_cycles == 50
        assert result.nonzero_cycles == 300
        assert result.nonzero_onchip_cycles == 250
        assert result.nonzero_coverage == pytest.approx(250 / 300)
        assert result.onchip_nonzero_share == pytest.approx(250 / 950)

    def test_interval_brackets_coverage(self):
        result = CoverageResult(0.01, 5, 2, 1000, 950, 700)
        low, high = result.coverage_interval
        assert low < result.coverage < high


class TestSimulateCoverage:
    def test_rejects_bad_arguments(self, code_d3):
        noise = PhenomenologicalNoise(0.01)
        with pytest.raises(ConfigurationError):
            simulate_clique_coverage(code_d3, noise, 0)
        with pytest.raises(ConfigurationError):
            simulate_clique_coverage(code_d3, noise, 100, measurement_rounds=0)

    def test_zero_noise_gives_full_coverage(self, code_d5):
        result = simulate_clique_coverage(code_d5, PhenomenologicalNoise(0.0), 2000, rng=1)
        assert result.coverage == 1.0
        assert result.all_zero_cycles == 2000

    def test_coverage_decreases_with_error_rate(self, code_d9):
        low = simulate_clique_coverage(code_d9, PhenomenologicalNoise(1e-3), 20_000, rng=2)
        high = simulate_clique_coverage(code_d9, PhenomenologicalNoise(1e-2), 20_000, rng=3)
        assert high.coverage < low.coverage

    def test_coverage_decreases_with_distance_at_fixed_rate(self, code_d3, code_d9):
        noise = PhenomenologicalNoise(1e-2)
        small = simulate_clique_coverage(code_d3, noise, 20_000, rng=4)
        large = simulate_clique_coverage(code_d9, noise, 20_000, rng=5)
        assert large.coverage < small.coverage

    def test_paper_worst_case_coverage_is_still_high(self):
        # Fig. 11: ~70% coverage even at p = 1e-2 and d = 21.
        from repro.codes.rotated_surface import get_code

        result = simulate_clique_coverage(
            get_code(21), PhenomenologicalNoise(1e-2), 20_000, rng=6
        )
        assert 0.6 < result.coverage < 0.85

    def test_paper_best_case_coverage_is_nearly_total(self, code_d5):
        result = simulate_clique_coverage(code_d5, PhenomenologicalNoise(5e-4), 20_000, rng=7)
        assert result.coverage > 0.99

    def test_more_measurement_rounds_never_reduce_coverage(self, code_d7):
        noise = PhenomenologicalNoise(5e-3)
        two = simulate_clique_coverage(code_d7, noise, 20_000, measurement_rounds=2, rng=8)
        four = simulate_clique_coverage(code_d7, noise, 20_000, measurement_rounds=4, rng=8)
        assert four.coverage >= two.coverage - 0.01

    def test_nonzero_share_grows_with_error_rate(self, code_d9):
        low = simulate_clique_coverage(code_d9, PhenomenologicalNoise(1e-4), 20_000, rng=9)
        high = simulate_clique_coverage(code_d9, PhenomenologicalNoise(1e-2), 20_000, rng=10)
        assert high.onchip_nonzero_share > low.onchip_nonzero_share

    def test_nonzero_share_is_nearly_total_near_threshold_at_high_distance(self):
        # Fig. 12: near threshold and at high code distance almost every
        # on-chip decode carries real (non-all-0s) work, so zero suppression
        # alone would not reduce bandwidth.
        from repro.codes.rotated_surface import get_code

        result = simulate_clique_coverage(
            get_code(21), PhenomenologicalNoise(1e-2), 20_000, rng=12
        )
        assert result.onchip_nonzero_share > 0.9

    def test_reproducible_with_seed(self, code_d5):
        noise = PhenomenologicalNoise(5e-3)
        first = simulate_clique_coverage(code_d5, noise, 5000, rng=11)
        second = simulate_clique_coverage(code_d5, noise, 5000, rng=11)
        assert first.onchip_cycles == second.onchip_cycles

    def test_default_call_is_the_explicit_one_worker_sharded_call(self, code_d5):
        from repro.simulation.coverage import DEFAULT_SHARD_CYCLES

        noise = PhenomenologicalNoise(1e-2)
        default = simulate_clique_coverage(code_d5, noise, 12_000, rng=3)
        explicit = simulate_clique_coverage(
            code_d5,
            noise,
            12_000,
            rng=3,
            workers=1,
            chunk_cycles=DEFAULT_SHARD_CYCLES,
        )
        assert default == explicit

    def test_generator_rng_is_rejected(self, code_d3):
        # Generator state cannot be split across shards.
        with pytest.raises(ConfigurationError):
            simulate_clique_coverage(
                code_d3,
                PhenomenologicalNoise(1e-2),
                100,
                rng=np.random.default_rng(1),
            )

    def test_zero_workers_is_rejected(self, code_d3):
        with pytest.raises(ConfigurationError):
            simulate_clique_coverage(
                code_d3, PhenomenologicalNoise(1e-2), 100, rng=1, workers=0
            )

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_non_positive_kernel_batch_size_is_rejected(self, code_d3, batch_size):
        # A batch of <= 0 cycles never uses up the run: reject, do not spin.
        from repro.simulation.coverage import CoverageKernel

        with pytest.raises(ConfigurationError, match="batch_size"):
            CoverageKernel(code_d3, PhenomenologicalNoise(1e-2), batch_size=batch_size)


class TestCoverageWorkers:
    """``workers=None`` has one meaning on the coverage entry points."""

    def test_small_run_stays_in_process(self):
        from repro.simulation.coverage import POOL_MIN_WORK, coverage_workers

        just_below = (POOL_MIN_WORK - 1) // 121
        assert coverage_workers(None, [(just_below, 11)]) == 1

    def test_large_run_uses_every_cpu(self):
        import os

        from repro.simulation.coverage import POOL_MIN_WORK, coverage_workers

        # Work sums over a run's points: two points at half the threshold.
        half = -(-POOL_MIN_WORK // (2 * 121))
        assert coverage_workers(None, [(half, 11), (half, 11)]) == (
            os.cpu_count() or 1
        )

    def test_given_workers_are_kept(self):
        from repro.simulation.coverage import coverage_workers

        assert coverage_workers(3, [(10**9, 21)]) == 3
        with pytest.raises(ConfigurationError):
            coverage_workers(0, [(100, 3)])

    def test_auto_chunk_sizes_for_the_workers_that_run(self):
        import os

        from repro.simulation.coverage import POOL_MIN_WORK, resolve_coverage_config

        noise = PhenomenologicalNoise(1e-2)
        small = resolve_coverage_config(4000, noise, 3, chunk_cycles="auto")
        assert small == resolve_coverage_config(
            4000, noise, 3, workers=1, chunk_cycles="auto"
        )
        cycles = -(-POOL_MIN_WORK // 9)
        large = resolve_coverage_config(cycles, noise, 3, chunk_cycles="auto")
        assert large == resolve_coverage_config(
            cycles, noise, 3, workers=os.cpu_count() or 1, chunk_cycles="auto"
        )


class TestResolveCoverageConfig:
    """The store keying contract: stream-determining knobs must all appear."""

    def _key(self, noise=None, **kwargs):
        from repro.noise.models import PhenomenologicalNoise
        from repro.simulation.coverage import resolve_coverage_config

        if noise is None:
            noise = PhenomenologicalNoise(1e-2)
        return resolve_coverage_config(2000, noise, 3, **kwargs)

    def test_defaults_key_like_explicit_defaults(self):
        assert self._key() == self._key(measurement_rounds=2)

    def test_independent_measurement_rate_is_keyed(self):
        from repro.noise.models import PhenomenologicalNoise

        # PhenomenologicalNoise(p, q) with q != p changes the persistent-flip
        # rate and therefore the counts: it must not share a key with the
        # symmetric q == p model at the same data rate.
        symmetric = self._key(noise=PhenomenologicalNoise(1e-2))
        asymmetric = self._key(noise=PhenomenologicalNoise(1e-2, 5e-3))
        assert symmetric != asymmetric

    def test_noise_class_is_keyed(self):
        from repro.noise.models import CodeCapacityNoise, PhenomenologicalNoise

        phenomenological = self._key(noise=PhenomenologicalNoise(1e-2))
        code_capacity = self._key(noise=CodeCapacityNoise(1e-2))
        assert phenomenological != code_capacity

    def test_kernel_batch_size_is_keyed(self):
        # Splitting a run into batches interleaves the data-error and
        # measurement-flip draws differently, so the kernel's batch size is
        # part of the key: a kernel with another default must not hit it.
        from repro.simulation.coverage import CoverageKernel

        assert self._key()["batch_size"] == CoverageKernel.batch_size == 50_000

    def test_workers_is_excluded(self):
        # The seeding contract makes counts worker-independent; only the
        # resolved chunk may enter the key.
        assert self._key(workers=1) == self._key(workers=8)

    def test_explicit_default_chunk_keys_like_implied(self):
        from repro.simulation.coverage import DEFAULT_SHARD_CYCLES

        assert self._key(workers=1) == self._key(chunk_cycles=DEFAULT_SHARD_CYCLES)

    def test_default_key_is_the_stored_sharded_key(self):
        # A default call keys exactly like the explicit sharded call always
        # did, so stores written before the unsharded path was deleted still
        # serve the same numbers.  Hash computed from that earlier code's
        # explicit chunk_cycles=DEFAULT_SHARD_CYCLES config, re-taken when
        # CODE_VERSION_SALT went to v3, v4 and v5 (the config itself did not
        # change).
        from repro.simulation.coverage import DEFAULT_SHARD_CYCLES
        from repro.store.keys import result_key

        default = self._key()
        assert default == self._key(chunk_cycles=DEFAULT_SHARD_CYCLES)
        assert default["sharded"] is True
        assert (
            result_key("fig11", default, 5)
            == "0cdd6ab279d44505f5ed7a44b5d0d95e97b59c4b8ce523042dbef255c9142743"
        )

    def test_chunk_cycles_is_stream_determining(self):
        assert self._key(chunk_cycles=500) != self._key(chunk_cycles=1000)

    def test_explicit_default_min_cycles_keys_like_implied(self):
        # The adaptive Wilson floor defaults to min(chunk, cycles) inside the
        # simulator; spelling that value out must hit the same key.
        implied = self._key(target_ci_width=0.05, chunk_cycles=500)
        explicit = self._key(target_ci_width=0.05, chunk_cycles=500, min_cycles=500)
        assert implied == explicit

    def test_min_cycles_is_inert_without_adaptive_sampling(self):
        assert self._key()["min_cycles"] is None
