"""Tests for noise models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.noise.models import CodeCapacityNoise, PhenomenologicalNoise
from repro.exceptions import InvalidProbabilityError
from repro.types import StabilizerType


class TestValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), "0.5", None])
    def test_rejects_invalid_data_rate(self, bad):
        with pytest.raises(InvalidProbabilityError):
            PhenomenologicalNoise(bad)

    def test_rejects_invalid_measurement_rate(self):
        with pytest.raises(InvalidProbabilityError):
            PhenomenologicalNoise(0.01, measurement_error_rate=2.0)

    def test_code_capacity_rejects_invalid_rate(self):
        with pytest.raises(InvalidProbabilityError):
            CodeCapacityNoise(-1.0)

    @pytest.mark.parametrize(
        "bad", [True, False, np.bool_(True), float("inf"), -float("inf"), np.float64("nan")]
    )
    def test_rejects_bools_and_non_finite_rates(self, bad):
        with pytest.raises(InvalidProbabilityError):
            PhenomenologicalNoise(bad)
        with pytest.raises(InvalidProbabilityError):
            PhenomenologicalNoise(0.01, measurement_error_rate=bad)
        with pytest.raises(InvalidProbabilityError):
            CodeCapacityNoise(bad)

    @pytest.mark.parametrize(
        "value, expected",
        [
            (np.float32(1e-3), float(np.float32(1e-3))),
            (np.float64(0.25), 0.25),
            (np.int64(0), 0.0),
            (np.int64(1), 1.0),
            (1, 1.0),
        ],
    )
    def test_accepts_numpy_and_integer_reals(self, value, expected):
        noise = PhenomenologicalNoise(value)
        assert type(noise.data_error_rate) is float
        assert noise.data_error_rate == noise.measurement_error_rate == expected
        assert CodeCapacityNoise(value).data_error_rate == expected


class TestRates:
    def test_measurement_rate_defaults_to_data_rate(self):
        noise = PhenomenologicalNoise(0.004)
        assert noise.measurement_error_rate == noise.data_error_rate == 0.004

    def test_measurement_rate_can_differ(self):
        noise = PhenomenologicalNoise(0.004, measurement_error_rate=0.001)
        assert noise.measurement_error_rate == 0.001

    def test_code_capacity_has_perfect_measurements(self):
        assert CodeCapacityNoise(0.01).measurement_error_rate == 0.0


class TestSampling:
    def test_data_vector_shape(self, code_d5, rng):
        noise = PhenomenologicalNoise(0.1)
        vector = noise.sample_data_vector(code_d5, rng)
        assert vector.shape == (code_d5.num_data_qubits,)
        assert set(np.unique(vector)) <= {0, 1}

    def test_measurement_vector_shape(self, code_d5, rng, stype):
        noise = PhenomenologicalNoise(0.1)
        vector = noise.sample_measurement_vector(code_d5, stype, rng)
        assert vector.shape == (code_d5.num_ancillas_of_type(stype),)

    def test_zero_rate_never_errs(self, code_d3, rng):
        noise = PhenomenologicalNoise(0.0)
        assert not noise.sample_data_vector(code_d3, rng).any()
        assert not noise.sample_measurement_vector(code_d3, StabilizerType.X, rng).any()

    def test_unit_rate_always_errs(self, code_d3, rng):
        noise = PhenomenologicalNoise(1.0)
        assert noise.sample_data_vector(code_d3, rng).all()

    def test_empirical_rate_close_to_nominal(self, code_d5):
        noise = PhenomenologicalNoise(0.2)
        rng = np.random.default_rng(0)
        samples = np.stack(
            [noise.sample_data_vector(code_d5, rng) for _ in range(2000)]
        )
        assert samples.mean() == pytest.approx(0.2, abs=0.02)

    def test_code_capacity_never_flips_measurements(self, code_d3, rng):
        noise = CodeCapacityNoise(0.5)
        assert not noise.sample_measurement_vector(code_d3, StabilizerType.X, rng).any()

    def test_repr_mentions_rates(self):
        assert "0.01" in repr(PhenomenologicalNoise(0.01))
