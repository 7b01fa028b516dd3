"""Fig. 4 — error-signature distribution across operating points."""

from __future__ import annotations

from repro.experiments import fig04

PAPER_COMPLEX_POINT = "5E-03/1E-12 (d=81)"


def test_fig04_signature_distribution(run_once):
    result = run_once(fig04.run, cycles=20_000, seed=2023)
    print()
    print(result.format_table())

    rows = {row["operating_point"]: row for row in result.rows}
    practical = {key: row for key, row in rows.items() if key != PAPER_COMPLEX_POINT}
    # Every paper point runs, the d=81 one included.
    assert len(rows) == 6
    # Shape 1: the paper's motivating observation — Complex is sizeable only
    # at the 5E-3 / 1E-12 point, whose d=81 row has the largest share.
    assert rows[PAPER_COMPLEX_POINT]["complex_pct"] > max(
        row["complex_pct"] for row in practical.values()
    )
    assert rows[PAPER_COMPLEX_POINT]["complex_pct"] > 20.0
    # Shape 2: every other point is > 85% trivial (the paper reports > 90%
    # for most; the near-threshold 5e-3 / 1e-5 point is the tightest).
    assert all(row["trivial_pct"] > 85.0 for row in practical.values())
    # Shape 3: lowering the physical rate at fixed target raises the All-0s share.
    assert rows["5E-04/1E-05 (d=5)"]["all_zeros_pct"] > rows["1E-03/1E-05 (d=7)"]["all_zeros_pct"]
