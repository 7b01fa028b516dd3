"""Smoke and shape tests for every experiment runner (small workloads)."""

from __future__ import annotations

import pytest

from repro.codes import PAPER_OPERATING_POINTS
from repro.experiments import fig04, fig09, fig11, fig12, fig13, fig14, fig15, fig16, headline, table1


def _fig04_points(max_distance):
    return tuple(p for p in PAPER_OPERATING_POINTS if p.code_distance <= max_distance)


class TestFig04:
    def test_rows_cover_requested_points(self):
        points = _fig04_points(9)
        result = fig04.run(cycles=2000, points=points)
        assert [row["operating_point"] for row in result.rows] == [
            point.label() for point in points
        ]

    def test_fractions_sum_to_100(self):
        result = fig04.run(cycles=2000, points=_fig04_points(9))
        for row in result.rows:
            total = row["all_zeros_pct"] + row["local_ones_pct"] + row["complex_pct"]
            assert total == pytest.approx(100.0)

    def test_trivial_fraction_dominates_at_practical_points(self):
        result = fig04.run(cycles=4000, points=_fig04_points(25))
        assert all(row["trivial_pct"] > 85.0 for row in result.rows)


class TestFig09:
    def test_two_percentiles_compared(self):
        result = fig09.run(coverage_cycles=3000, timeline_cycles=30, seed=1)
        assert len(result.rows) == 2
        fifty, ninety_nine = result.rows
        assert fifty["percentile"] == 50.0
        assert ninety_nine["percentile"] == 99.0
        assert ninety_nine["stall_fraction"] <= fifty["stall_fraction"]

    def test_timeline_rows_have_bandwidth_column(self):
        result = fig09.timeline(offchip_rate=0.05, cycles=20, seed=2)
        assert len(result.rows) == 20
        assert all(row["bandwidth"] == result.rows[0]["bandwidth"] for row in result.rows)


class TestFig11And12:
    def test_fig11_grid_dimensions(self):
        result = fig11.run(cycles=1500, distances=(3, 5), error_rates=(1e-3, 1e-2))
        assert len(result.rows) == 4
        assert {row["code_distance"] for row in result.rows} == {3, 5}

    def test_fig11_coverage_bounds(self):
        result = fig11.run(cycles=1500, distances=(3, 7), error_rates=(1e-2,))
        for row in result.rows:
            assert 0.0 <= row["coverage_pct"] <= 100.0
            assert row["coverage_ci_low_pct"] <= row["coverage_pct"] + 1e-9
            assert row["coverage_pct"] <= row["coverage_ci_high_pct"] + 1e-9

    def test_fig12_shares_are_percentages(self):
        result = fig12.run(cycles=1500, distances=(3, 7), error_rates=(1e-2,))
        for row in result.rows:
            assert 0.0 <= row["onchip_not_all_zeros_pct"] <= 100.0
            assert 0.0 <= row["nonzero_handled_onchip_pct"] <= 100.0


class TestFig13:
    def test_reports_all_three_schemes(self):
        result = fig13.run(cycles=1500, distances=(3, 7), error_rates=(1e-3,))
        for row in result.rows:
            assert row["clique_reduction_x"] > 0
            assert row["afs_reduction_x"] > 0
            assert row["zero_suppression_reduction_x"] > 0

    def test_clique_beats_afs_everywhere_on_the_default_grid(self):
        result = fig13.run(cycles=4000, distances=(5, 9, 13), error_rates=(1e-3, 5e-3))
        assert all(row["clique_vs_afs_x"] > 1.0 for row in result.rows)


class TestFig14:
    def test_small_run_has_expected_columns(self):
        result = fig14.run(trials=30, distances=(3,), error_rates=(2e-2,), seed=3)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert 0.0 <= row["baseline_logical_error_rate"] <= 1.0
        assert 0.0 <= row["clique_logical_error_rate"] <= 1.0
        assert 0.0 <= row["onchip_round_fraction"] <= 1.0

    @pytest.mark.parametrize("scale", ["laptop", "paper"])
    def test_explicit_empty_distance_grid_yields_no_rows(self, scale):
        # An empty grid is a request for no points, not for the scale's
        # default grid (as with error_rates=()).
        assert fig14.run(trials=30, distances=(), scale=scale).rows == []

    def test_point_config_keys_the_cascade_by_its_offchip_tier(self):
        common = dict(
            distance=5,
            error_rate=2e-2,
            rounds=None,
            trials=100,
            stop=None,
        )
        # The cascade point keeps its off-chip tier under the historical
        # "fallback" entry, now a constant, so warm stores keep hitting.
        cascade = fig14._memory_point_config(**common, decoder=fig14.CASCADE_LABEL)
        baseline = fig14._memory_point_config(**common, decoder=fig14.BASELINE_LABEL)
        assert cascade["decoder"] == "Clique+MWPM"
        assert cascade["fallback"] == "mwpm"
        assert baseline["decoder"] == "MWPM"
        assert baseline["fallback"] is None
        assert cascade.keys() == baseline.keys()
        assert "tiers" not in cascade

    def test_tiers_is_no_longer_a_keyword(self):
        with pytest.raises(TypeError, match="tiers"):
            fig14.run(trials=30, distances=(3,), tiers="clique,mwpm")


class TestFig15:
    def test_default_grid(self):
        result = fig15.run()
        assert [row["code_distance"] for row in result.rows] == list(fig15.DEFAULT_DISTANCES)

    def test_monotone_power_and_area(self):
        result = fig15.run()
        powers = [row["power_uw"] for row in result.rows]
        areas = [row["area_mm2"] for row in result.rows]
        assert powers == sorted(powers)
        assert areas == sorted(areas)


class TestFig16:
    def test_sweep_shape(self):
        result = fig16.run(
            operating_points=((1e-2, 5),),
            percentiles=(50.0, 99.0),
            coverage_cycles=2000,
            program_cycles=2000,
            seed=4,
        )
        assert len(result.rows) == 2

    def test_higher_percentile_trades_bandwidth_for_speed(self):
        result = fig16.run(
            operating_points=((1e-2, 9),),
            percentiles=(90.0, 99.9),
            coverage_cycles=4000,
            program_cycles=4000,
            seed=5,
        )
        first, second = result.rows
        assert first["bandwidth_reduction_x"] >= second["bandwidth_reduction_x"]
        if first["completed"] and second["completed"]:
            assert second["execution_time_increase_pct"] <= first["execution_time_increase_pct"] + 1.0


class TestTable1AndHeadline:
    def test_table1_matches_cell_library(self):
        result = table1.run()
        assert len(result.rows) == 6
        xor_row = next(row for row in result.rows if row["cell"] == "XOR2")
        assert xor_row["jj_count"] == 18

    def test_headline_claims_hold_on_small_run(self):
        result = headline.run(cycles=3000, points=((1e-2, 13), (1e-3, 9)))
        for row in result.rows:
            assert row["bandwidth_eliminated_pct"] > 70.0
            assert row["clique_vs_afs_x"] > 1.0
            assert row["nisqplus_power_x_at_d9"] == pytest.approx(37.0)
