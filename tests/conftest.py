"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.faults import drop_idle_pool
from repro.noise.models import CodeCapacityNoise, PhenomenologicalNoise
from repro.types import StabilizerType


@pytest.fixture(autouse=True)
def _no_idle_pool_between_tests():
    """Each test starts without an idle shard pool.

    Pooled runs keep their pool for the next run in the process; dropping it
    after every test keeps pool counts, monkeypatched pool classes and
    forked-worker state local to the test that made them.
    """
    yield
    drop_idle_pool()


@pytest.fixture(scope="session")
def code_d3() -> RotatedSurfaceCode:
    return RotatedSurfaceCode(3)


@pytest.fixture(scope="session")
def code_d5() -> RotatedSurfaceCode:
    return RotatedSurfaceCode(5)


@pytest.fixture(scope="session")
def code_d7() -> RotatedSurfaceCode:
    return RotatedSurfaceCode(7)


@pytest.fixture(scope="session")
def code_d9() -> RotatedSurfaceCode:
    return RotatedSurfaceCode(9)


@pytest.fixture(params=[3, 5, 7])
def code(request) -> RotatedSurfaceCode:
    """Parametrised small codes for geometry-independent tests."""
    return RotatedSurfaceCode(request.param)


@pytest.fixture(params=[StabilizerType.X, StabilizerType.Z])
def stype(request) -> StabilizerType:
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def phenomenological_1pct() -> PhenomenologicalNoise:
    return PhenomenologicalNoise(1e-2)


@pytest.fixture
def code_capacity_1pct() -> CodeCapacityNoise:
    return CodeCapacityNoise(1e-2)
