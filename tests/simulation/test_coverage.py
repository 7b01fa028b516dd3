"""Tests for Clique coverage measurement (Figs. 11-12)."""

from __future__ import annotations

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


class TestPrebuiltDecoder:
    """A ready CliqueDecoder must match the run's code and stabilizer type."""

    def test_matching_decoder_is_used(self, code_d5):
        from repro.clique.decoder import CliqueDecoder
        from repro.types import StabilizerType

        noise = PhenomenologicalNoise(2e-2)
        decoder = CliqueDecoder(code_d5, StabilizerType.X)
        result = simulate_clique_coverage(code_d5, noise, 20_000, rng=1, decoder=decoder)
        assert result.onchip_cycles == 19104

    @pytest.mark.parametrize(
        "distance,stype_name", [(5, "Z"), (7, "X"), (3, "X")], ids=["Z", "d7", "d3"]
    )
    def test_mismatched_decoder_is_rejected(self, code_d5, distance, stype_name):
        from repro.clique.decoder import CliqueDecoder
        from repro.codes.rotated_surface import get_code
        from repro.types import StabilizerType

        decoder = CliqueDecoder(get_code(distance), StabilizerType[stype_name])
        with pytest.raises(ConfigurationError) as excinfo:
            simulate_clique_coverage(
                code_d5, PhenomenologicalNoise(2e-2), 20_000, rng=1, decoder=decoder
            )
        message = str(excinfo.value)
        assert f"distance {distance}, {stype_name} stabilizers" in message
        assert "distance 5, X stabilizers" in message


class TestResolveCoverageConfig:
    """The store keying contract: stream-determining knobs must all appear."""

    def _key(self, noise=None, **kwargs):
        from repro.noise.models import PhenomenologicalNoise
        from repro.simulation.coverage import resolve_coverage_config

        if noise is None:
            noise = PhenomenologicalNoise(1e-2)
        return resolve_coverage_config(2000, noise, 3, **kwargs)

    def test_defaults_key_like_explicit_defaults(self):
        assert self._key() == self._key(measurement_rounds=2, batch_size=50_000)

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

    def test_batch_size_is_stream_determining(self):
        # Splitting a run into batches interleaves the data-error and
        # measurement-flip draws differently, so batch_size must change the
        # key — excluding it would serve numbers from a different stream.
        assert self._key(batch_size=1000) != self._key()

    def test_workers_is_excluded(self):
        # The seeding contract makes counts worker-independent; only the
        # sharded-ness (and resolved chunk) may enter the key.
        assert self._key(workers=1) == self._key(workers=8)

    def test_sharded_and_legacy_paths_key_differently(self):
        assert self._key(workers=1) != self._key()

    def test_explicit_default_chunk_keys_like_implied(self):
        from repro.simulation.coverage import DEFAULT_SHARD_CYCLES

        assert self._key(workers=1) == self._key(chunk_cycles=DEFAULT_SHARD_CYCLES)

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
