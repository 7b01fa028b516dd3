"""The top-level package must export a stable, importable public API."""

from __future__ import annotations

import pytest

import repro


class TestPublicApi:
    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    @pytest.mark.parametrize("name", repro.__all__)
    def test_every_exported_name_resolves(self, name):
        assert getattr(repro, name) is not None

    def test_core_workflow_is_constructible_from_the_top_level(self):
        code = repro.RotatedSurfaceCode(3)
        noise = repro.PhenomenologicalNoise(1e-2)
        decoder = repro.DecoderCascade(code, repro.StabilizerType.X)
        assert decoder.code is code
        assert noise.data_error_rate == 1e-2

    def test_required_code_distance_exposed(self):
        assert repro.required_code_distance(1e-3, 1e-5) >= 3

    def test_setup_shim_exists_for_offline_installs(self):
        from pathlib import Path

        assert (Path(__file__).resolve().parents[1] / "setup.py").exists()
