"""Frozen full-row pins of the figures the bandwidth layer feeds.

Fig. 9 and Fig. 16 are the bandwidth layer's end-to-end outputs: percentile
provisioning (:func:`repro.bandwidth.allocation.provision_for_percentile`)
and the stall simulator (:class:`repro.bandwidth.stalling.StallSimulator`)
downstream of a seeded Clique coverage measurement.  These rows were
recorded with the scipy ``binom.ppf`` provisioning and the per-cycle scalar
stall loop; the in-tree quantile and the block-vectorised stall loop must
reproduce every field exactly — including the 50th-percentile aborts, whose
``execution_time_increase_pct`` is ``inf`` — not merely statistically.
"""

from __future__ import annotations

import math

from repro.experiments import fig09, fig16

INF = math.inf

FIG16_COLUMNS = (
    "physical_error_rate",
    "code_distance",
    "offchip_rate_per_qubit",
    "percentile",
    "provisioned_decodes_per_cycle",
    "bandwidth_reduction_x",
    "execution_time_increase_pct",
    "completed",
)
FIG16_ROWS = [
    (0.01, 11, 0.08830000000000005, 50.0, 88, 11.363636363636363, INF, False),
    (0.01, 11, 0.08830000000000005, 75.0, 94, 10.638297872340425, 54.459999999999994, True),
    (0.01, 11, 0.08830000000000005, 90.0, 100, 10.0, 11.52, True),
    (0.01, 11, 0.08830000000000005, 95.0, 103, 9.70873786407767, 5.71, True),
    (0.01, 11, 0.08830000000000005, 99.0, 110, 9.090909090909092, 0.88, True),
    (0.01, 11, 0.08830000000000005, 99.9, 117, 8.547008547008547, 0.13999999999999999, True),
    (0.01, 11, 0.08830000000000005, 99.99, 123, 8.130081300813009, 0.005, True),
    (0.005, 13, 0.03444999999999998, 50.0, 34, 29.41176470588235, INF, False),
    (0.005, 13, 0.03444999999999998, 75.0, 38, 26.31578947368421, 57.165, True),
    (0.005, 13, 0.03444999999999998, 90.0, 42, 23.80952380952381, 10.54, True),
    (0.005, 13, 0.03444999999999998, 95.0, 44, 22.727272727272727, 5.220000000000001, True),
    (0.005, 13, 0.03444999999999998, 99.0, 49, 20.408163265306122, 0.72, True),
    (0.005, 13, 0.03444999999999998, 99.9, 54, 18.51851851851852, 0.045, True),
    (0.005, 13, 0.03444999999999998, 99.99, 58, 17.24137931034483, 0.005, True),
    (0.001, 9, 0.00044999999999995044, 50.0, 1, 1000.0, 15.425, True),
    (0.001, 9, 0.00044999999999995044, 75.0, 1, 1000.0, 16.205, True),
    (0.001, 9, 0.00044999999999995044, 90.0, 1, 1000.0, 17.04, True),
    (0.001, 9, 0.00044999999999995044, 95.0, 2, 500.0, 1.325, True),
    (0.001, 9, 0.00044999999999995044, 99.0, 3, 333.3333333333333, 0.13999999999999999, True),
    (0.001, 9, 0.00044999999999995044, 99.9, 4, 250.0, 0.01, True),
    (0.001, 9, 0.00044999999999995044, 99.99, 5, 200.0, 0.0, True),
]

FIG09_COLUMNS = (
    "percentile",
    "offchip_rate_per_qubit",
    "provisioned_decodes_per_cycle",
    "mean_demand_per_cycle",
    "peak_demand_per_cycle",
    "program_cycles",
    "stall_cycles",
    "stall_fraction",
    "max_backlog",
    "completed",
)
FIG09_ROWS = [
    (50.0, 0.08955000000000002, 89, 89.55000000000001, 8997, 1, 15473, 0.9999353754685278, 8908, False),
    (99.0, 0.08955000000000002, 111, 89.55000000000001, 112, 100, 1, 0.009900990099009901, 1, True),
]

TIMELINE_COLUMNS = (
    "cycle",
    "new_decodes",
    "carryover",
    "served",
    "is_stall",
    "bandwidth",
)
TIMELINE_ROWS = [
    (0, 46, 0, 46, False, 67),
    (1, 47, 0, 47, False, 67),
    (2, 51, 0, 51, False, 67),
    (3, 46, 0, 46, False, 67),
    (4, 46, 0, 46, False, 67),
    (5, 62, 0, 62, False, 67),
    (6, 55, 0, 55, False, 67),
    (7, 42, 0, 42, False, 67),
    (8, 59, 0, 59, False, 67),
    (9, 46, 0, 46, False, 67),
    (10, 68, 0, 67, False, 67),
    (11, 55, 1, 56, True, 67),
    (12, 55, 0, 55, False, 67),
    (13, 52, 0, 52, False, 67),
    (14, 49, 0, 49, False, 67),
    (15, 48, 0, 48, False, 67),
    (16, 51, 0, 51, False, 67),
    (17, 62, 0, 62, False, 67),
    (18, 51, 0, 51, False, 67),
    (19, 47, 0, 47, False, 67),
    (20, 52, 0, 52, False, 67),
    (21, 55, 0, 55, False, 67),
    (22, 44, 0, 44, False, 67),
    (23, 37, 0, 37, False, 67),
    (24, 51, 0, 51, False, 67),
    (25, 57, 0, 57, False, 67),
    (26, 48, 0, 48, False, 67),
    (27, 43, 0, 43, False, 67),
    (28, 56, 0, 56, False, 67),
    (29, 44, 0, 44, False, 67),
    (30, 47, 0, 47, False, 67),
    (31, 48, 0, 48, False, 67),
    (32, 53, 0, 53, False, 67),
    (33, 50, 0, 50, False, 67),
    (34, 63, 0, 63, False, 67),
    (35, 52, 0, 52, False, 67),
    (36, 51, 0, 51, False, 67),
    (37, 57, 0, 57, False, 67),
    (38, 47, 0, 47, False, 67),
    (39, 45, 0, 45, False, 67),
    (40, 45, 0, 45, False, 67),
    (41, 47, 0, 47, False, 67),
    (42, 44, 0, 44, False, 67),
    (43, 58, 0, 58, False, 67),
    (44, 52, 0, 52, False, 67),
    (45, 60, 0, 60, False, 67),
    (46, 63, 0, 63, False, 67),
    (47, 70, 0, 67, False, 67),
    (48, 51, 3, 54, True, 67),
    (49, 52, 0, 52, False, 67),
    (50, 61, 0, 61, False, 67),
    (51, 53, 0, 53, False, 67),
    (52, 43, 0, 43, False, 67),
    (53, 43, 0, 43, False, 67),
    (54, 41, 0, 41, False, 67),
    (55, 47, 0, 47, False, 67),
    (56, 47, 0, 47, False, 67),
    (57, 61, 0, 61, False, 67),
    (58, 50, 0, 50, False, 67),
    (59, 49, 0, 49, False, 67),
    (60, 53, 0, 53, False, 67),
    (61, 50, 0, 50, False, 67),
    (62, 45, 0, 45, False, 67),
    (63, 58, 0, 58, False, 67),
    (64, 64, 0, 64, False, 67),
    (65, 51, 0, 51, False, 67),
    (66, 57, 0, 57, False, 67),
    (67, 48, 0, 48, False, 67),
    (68, 40, 0, 40, False, 67),
    (69, 41, 0, 41, False, 67),
    (70, 44, 0, 44, False, 67),
    (71, 49, 0, 49, False, 67),
    (72, 47, 0, 47, False, 67),
    (73, 58, 0, 58, False, 67),
    (74, 50, 0, 50, False, 67),
    (75, 51, 0, 51, False, 67),
    (76, 58, 0, 58, False, 67),
    (77, 49, 0, 49, False, 67),
    (78, 52, 0, 52, False, 67),
    (79, 54, 0, 54, False, 67),
    (80, 44, 0, 44, False, 67),
    (81, 55, 0, 55, False, 67),
    (82, 38, 0, 38, False, 67),
    (83, 51, 0, 51, False, 67),
    (84, 49, 0, 49, False, 67),
    (85, 44, 0, 44, False, 67),
    (86, 51, 0, 51, False, 67),
    (87, 47, 0, 47, False, 67),
    (88, 45, 0, 45, False, 67),
    (89, 53, 0, 53, False, 67),
    (90, 39, 0, 39, False, 67),
    (91, 54, 0, 54, False, 67),
    (92, 64, 0, 64, False, 67),
    (93, 53, 0, 53, False, 67),
    (94, 49, 0, 49, False, 67),
    (95, 31, 0, 31, False, 67),
    (96, 55, 0, 55, False, 67),
    (97, 63, 0, 63, False, 67),
    (98, 40, 0, 40, False, 67),
    (99, 37, 0, 37, False, 67),
    (100, 46, 0, 46, False, 67),
    (101, 63, 0, 63, False, 67),
]


def _rows(result):
    return [tuple(row.values()) for row in result.rows]


def test_fig16_default_rows_are_frozen():
    # Rows never depend on the worker count; one worker keeps this in-process.
    result = fig16.run(workers=1)
    assert tuple(result.rows[0]) == FIG16_COLUMNS
    assert _rows(result) == FIG16_ROWS


def test_fig09_default_rows_are_frozen():
    result = fig09.run()
    assert tuple(result.rows[0]) == FIG09_COLUMNS
    assert _rows(result) == FIG09_ROWS


def test_fig09_timeline_records_are_frozen():
    result = fig09.timeline()
    assert tuple(result.rows[0]) == TIMELINE_COLUMNS
    assert _rows(result) == TIMELINE_ROWS
