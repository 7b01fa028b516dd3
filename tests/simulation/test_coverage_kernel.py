"""The packed coverage kernel: differential tests, frozen pins, shard payloads.

* Differential: ``CoverageKernel``, which every coverage run is sharded
  into, must count exactly what the int64 formulation in
  ``coverage_oracle.py`` counts on the same stream.
* Frozen pins: seeded ``CoverageKernel`` counts, taken before the kernel
  moved to bitplanes, and the seeded rows of fig09, fig13, fig16 and
  headline, which the schedule-identity pins do not cover.
* Payloads: shard kernels pickle to a few hundred bytes because codes
  pickle as their distance.
"""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest
from coverage_oracle import oracle_count_coverage

from repro import bitplane
from repro.bandwidth.traffic import syndrome_bits_per_cycle
from repro.clique import decoder as clique_decoder
from repro.clique.decoder import CliqueDecoder, get_clique_decoder
from repro.codes.rotated_surface import RotatedSurfaceCode, get_code
from repro.experiments import run_experiment
from repro.experiments.fig14 import _cascade_factory
from repro.hardware.estimates import clique_overheads, compare_with_nisqplus
from repro.hardware.synthesis import synthesize_clique_decoder
from repro.noise.models import CodeCapacityNoise, PhenomenologicalNoise
from repro.exceptions import ConfigurationError
from repro.noise.rng import shard_rng
from repro.simulation.coverage import CoverageKernel, simulate_clique_coverage
from repro.simulation.scheduler import coverage_point
from repro.simulation.shard import MemoryKernel
from repro.types import StabilizerType

X = StabilizerType.X


@functools.lru_cache(maxsize=None)
def _clique(distance: int, stype: StabilizerType = X) -> CliqueDecoder:
    return CliqueDecoder(get_code(distance), stype)


def _oracle(
    distance, noise, cycles, seed, measurement_rounds=2, batch_size=50_000, stype=X
):
    return oracle_count_coverage(
        _clique(distance, stype),
        noise,
        measurement_rounds,
        cycles,
        np.random.default_rng(seed),
        batch_size,
    )


def _packed(
    distance, noise, cycles, seed, measurement_rounds=2, batch_size=50_000, stype=X
):
    kernel = CoverageKernel(
        get_code(distance), noise, stype, measurement_rounds, batch_size
    )
    onchip, all_zero, counted = kernel(cycles, np.random.default_rng(seed))
    assert counted == cycles
    return onchip, all_zero


class HalfLatticeNoise(PhenomenologicalNoise):
    """Data errors only on the first half of the data qubits, as bools.

    Overrides the batched data sampler with its own RNG draw shape and a
    bool matrix, so both the draw order and the dtype differ from the base
    class.
    """

    def sample_data_matrix(self, code, num_samples, rng):
        half = code.num_data_qubits // 2
        errors = np.zeros((num_samples, code.num_data_qubits), dtype=bool)
        errors[:, :half] = rng.random((num_samples, half)) < self.data_error_rate
        return errors


CYCLE_COUNTS = (1, 63, 64, 65, 1000)


class TestPackedMatchesOracle:
    @pytest.mark.parametrize("measurement_rounds", [1, 2, 4])
    @pytest.mark.parametrize("error_rate", [0.0, 1e-3, 1e-2, 0.3])
    @pytest.mark.parametrize("distance", [3, 5, 9, 21])
    def test_kernel_counts_equal_oracle(
        self, distance, error_rate, measurement_rounds
    ):
        noise = PhenomenologicalNoise(error_rate)
        for seed, cycles in enumerate(CYCLE_COUNTS):
            expected = _oracle(distance, noise, cycles, seed, measurement_rounds)
            assert _packed(distance, noise, cycles, seed, measurement_rounds) == (
                expected
            ), f"cycles={cycles}"

    @pytest.mark.parametrize(
        "distance,cycles,batch_size", [(5, 1000, 100), (9, 2000, 777), (21, 1000, 65)]
    )
    def test_ragged_batches_equal_oracle(self, distance, cycles, batch_size):
        # batch_size < cycles and not a multiple of 64: every batch ends in
        # a ragged word and the stream is cut into several draws.
        noise = PhenomenologicalNoise(1e-2)
        assert _packed(distance, noise, cycles, 3, batch_size=batch_size) == _oracle(
            distance, noise, cycles, 3, batch_size=batch_size
        )

    @pytest.mark.parametrize("cycles", [65, 1000])
    def test_overridden_data_sampler_is_honoured(self, cycles):
        noise = HalfLatticeNoise(2e-2)
        packed = _packed(7, noise, cycles, 4, batch_size=300)
        assert packed == _oracle(7, noise, cycles, 4, batch_size=300)
        # And the override really changed the counts.
        baseline = PhenomenologicalNoise(2e-2)
        assert packed != _packed(7, baseline, cycles, 4, batch_size=300)

    def test_z_stabilizers_and_code_capacity_noise(self):
        for noise in (PhenomenologicalNoise(1e-2), CodeCapacityNoise(3e-2)):
            assert _packed(7, noise, 1000, 5, stype=StabilizerType.Z) == _oracle(
                7, noise, 1000, 5, stype=StabilizerType.Z
            )

    @pytest.mark.parametrize("distance", [3, 21])
    def test_shard_kernel_equals_oracle(self, distance):
        noise = PhenomenologicalNoise(1e-2)
        kernel = CoverageKernel(get_code(distance), noise, batch_size=400)
        onchip, all_zero, cycles = kernel(1000, shard_rng(11, 2))
        assert cycles == 1000
        assert (onchip, all_zero) == oracle_count_coverage(
            _clique(distance), noise, 2, 1000, shard_rng(11, 2), 400
        )


class TestFrozenPins:
    """Seeded ``CoverageKernel`` counts, frozen before the kernel moved from
    an int64 matmul to bitplanes, and seeded figure rows.

    The figure rows were reproduced, before the unsharded coverage path was
    deleted, by its explicit sharded call (``workers=1,
    chunk_cycles=DEFAULT_SHARD_CYCLES``), which is what the default call now
    runs."""

    @pytest.mark.parametrize(
        "distance,noise,cycles,seed,kwargs,expected",
        [
            (3, PhenomenologicalNoise(1e-2), 2000, 1, {}, (2000, 1833)),
            (5, PhenomenologicalNoise(2e-2), 20_000, 1, {}, (19104, 11944)),
            (
                9,
                PhenomenologicalNoise(5e-3),
                5000,
                2,
                {"measurement_rounds": 3, "batch_size": 777},
                (4932, 3344),
            ),
            (21, PhenomenologicalNoise(1e-2), 3000, 6, {}, (2071, 36)),
            (
                7,
                PhenomenologicalNoise(1e-2),
                4000,
                4,
                {"stype": StabilizerType.Z},
                (3880, 2462),
            ),
            (5, CodeCapacityNoise(3e-2), 3000, 5, {}, (2694, 1388)),
            (
                7,
                PhenomenologicalNoise(1e-2, 5e-3),
                3000,
                8,
                {"measurement_rounds": 1},
                (2696, 1658),
            ),
        ],
    )
    def test_coverage_kernel(self, distance, noise, cycles, seed, kwargs, expected):
        kernel = CoverageKernel(get_code(distance), noise, **kwargs)
        onchip, all_zero, _ = kernel(cycles, np.random.default_rng(seed))
        assert (onchip, all_zero) == expected

    def test_fig13(self):
        result = run_experiment(
            "fig13", cycles=2000, distances=(3, 9), error_rates=(1e-3, 1e-2)
        )
        assert [row["clique_reduction_x"] for row in result.rows] == [
            2000.0,
            2000.0,
            999.9999999999991,
            21.276595744680833,
        ]

    def test_headline(self):
        result = run_experiment("headline", cycles=2000)
        assert [row["bandwidth_eliminated_pct"] for row in result.rows] == [
            67.9,
            96.45,
            99.9,
            100.0,
        ]

    def test_fig09(self):
        result = run_experiment("fig09", coverage_cycles=2000, timeline_cycles=50)
        assert [
            (row["offchip_rate_per_qubit"], row["provisioned_decodes_per_cycle"])
            for row in result.rows
        ] == [(0.09450000000000003, 94), (0.09450000000000003, 117)]

    def test_fig16(self):
        result = run_experiment(
            "fig16",
            coverage_cycles=2000,
            program_cycles=300,
            operating_points=((1e-2, 11), (1e-3, 9)),
            percentiles=(90.0, 99.0),
        )
        assert [
            (row["offchip_rate_per_qubit"], row["execution_time_increase_pct"])
            for row in result.rows
        ] == [
            (0.08750000000000002, 15.0),
            (0.08750000000000002, 0.33333333333333337),
            (0.0005, 20.0),
            (0.0005, 0.0),
        ]


class TestShardPayloads:
    def test_code_pickles_as_its_distance(self):
        for code in (get_code(21), RotatedSurfaceCode(21)):
            restored = pickle.loads(pickle.dumps(code))
            assert restored == code
            assert restored is get_code(21)

    def test_coverage_kernel_payload_is_small(self):
        kernel = CoverageKernel(get_code(21), PhenomenologicalNoise(1e-2))
        payload = pickle.dumps(kernel)
        assert len(payload) < 2048
        assert pickle.loads(payload).code is get_code(21)

    def test_memory_kernel_payload_is_small(self):
        kernel = MemoryKernel(
            get_code(21), PhenomenologicalNoise(1e-3), _cascade_factory, 21, X
        )
        payload = pickle.dumps(kernel)
        assert len(payload) < 2048
        assert pickle.loads(payload).code is get_code(21)


BAD_MEASUREMENT_ROUNDS = [0, -1, 2.5, True]


class TestMeasurementRoundsValidation:
    """A window of 0 rounds would make every ancilla flip persist
    (``p ** 0 == 1``) and a fractional one would key a row under it; every
    coverage entry point refuses both before sampling, and the traffic and
    hardware-cost entry points refuse them before counting bits or cells."""

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_coverage_kernel(self, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            CoverageKernel(get_code(3), PhenomenologicalNoise(1e-2), X, rounds)

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_coverage_point(self, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            coverage_point(
                "p",
                get_code(3),
                PhenomenologicalNoise(1e-2),
                cycles=100,
                seed=1,
                measurement_rounds=rounds,
            )

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_simulate_clique_coverage(self, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            simulate_clique_coverage(
                get_code(3), PhenomenologicalNoise(1e-2), 100, measurement_rounds=rounds
            )

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_fig11(self, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            run_experiment(
                "fig11",
                cycles=100,
                distances=(3,),
                error_rates=(1e-2,),
                measurement_rounds=rounds,
                workers=1,
            )

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_syndrome_bits_per_cycle(self, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            syndrome_bits_per_cycle(5, rounds)

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_synthesize_clique_decoder(self, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            synthesize_clique_decoder(5, measurement_rounds=rounds)

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_clique_overheads(self, rounds):
        # Cache a valid row whose key equals ``(5, True)`` first: a bool
        # must not be served the 1-round entry.
        clique_overheads(5, 1)
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            clique_overheads(5, rounds)

    @pytest.mark.parametrize("rounds", BAD_MEASUREMENT_ROUNDS)
    def test_compare_with_nisqplus(self, rounds):
        with pytest.raises(ConfigurationError, match="measurement_rounds"):
            compare_with_nisqplus(5, rounds)

    def test_numpy_integer_rounds_count_like_int(self):
        noise = PhenomenologicalNoise(1e-2)
        expected = CoverageKernel(get_code(5), noise, X, 3)(300, shard_rng(7, 0))
        counts = CoverageKernel(get_code(5), noise, X, np.int64(3))(300, shard_rng(7, 0))
        assert counts == expected


class TestPerProcessTables:
    def test_multi_shard_run_builds_each_table_once(self, monkeypatch):
        built = []
        for module, name in (
            (clique_decoder, "CliqueDecoder"),
            (bitplane, "PackedParityCheck"),
        ):
            original = getattr(module, name).__init__

            def counting(self, *args, _original=original, _name=name, **kwargs):
                built.append(_name)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(getattr(module, name), "__init__", counting)
        get_clique_decoder.cache_clear()
        bitplane.get_packed_parity_check.cache_clear()
        noise = PhenomenologicalNoise(1e-2)
        for distance, stype in ((5, X), (5, StabilizerType.Z), (7, X), (5, X)):
            simulate_clique_coverage(
                get_code(distance), noise, 2_000, stype=stype, rng=1,
                workers=1, chunk_cycles=500,
            )
        assert sorted(built) == ["CliqueDecoder"] * 3 + ["PackedParityCheck"] * 3
