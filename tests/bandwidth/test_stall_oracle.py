"""Differential tests: the block-vectorised stall loop against the scalar oracle.

:meth:`StallSimulator.run` must reproduce the per-cycle scalar loop
(``stall_oracle.py``) exactly: every result field, every per-cycle record,
and the state a shared generator is left in.  The grid spans both of
numpy's binomial samplers (inversion for ``n * p <= 30``, BTPE above),
percentiles from the mean to the far tail (the 50th percentile aborts),
abort factors 0, 10 and 100, and — with ``MAX_BLOCK_CYCLES`` patched small —
runs that cross many block boundaries, aborts included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from stall_oracle import oracle_run

from repro.bandwidth import stalling
from repro.bandwidth.allocation import BandwidthPlan, provision_for_percentile
from repro.bandwidth.stalling import StallSimulator

#: (logical qubits, off-chip rate): n * p of 10 and 20 (inversion sampler),
#: 50 and ~441 (BTPE sampler); the last is fig16's d=11 operating point.
DEMANDS = ((1000, 0.01), (200, 0.1), (1000, 0.05), (5000, 0.0883))
PERCENTILES = (50.0, 75.0, 90.0, 99.0, 99.99)
ABORT_FACTORS = (0.0, 10.0, 100.0)


def _assert_same_run(plan, seed, program_cycles, keep_records, abort_backlog_factor):
    production_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    # Pre-draw from both so the shared generators start mid-stream.
    production_rng.random(3)
    oracle_rng.random(3)
    result = StallSimulator(plan, seed=production_rng).run(
        program_cycles,
        keep_records=keep_records,
        abort_backlog_factor=abort_backlog_factor,
    )
    expected = oracle_run(
        plan,
        oracle_rng,
        program_cycles,
        keep_records=keep_records,
        abort_backlog_factor=abort_backlog_factor,
    )
    assert dataclasses.astuple(result) == dataclasses.astuple(expected)
    assert result.records == expected.records
    assert all(
        type(value) is type(oracle_value)
        for record, oracle_record in zip(result.records, expected.records)
        for value, oracle_value in zip(
            dataclasses.astuple(record), dataclasses.astuple(oracle_record)
        )
    )
    assert production_rng.bit_generator.state == oracle_rng.bit_generator.state
    # The generator's own sampler cache must agree too: the next draws match.
    assert production_rng.binomial(
        plan.num_logical_qubits, plan.offchip_rate, size=5
    ).tolist() == oracle_rng.binomial(
        plan.num_logical_qubits, plan.offchip_rate, size=5
    ).tolist()
    return result


@pytest.mark.parametrize("abort_backlog_factor", ABORT_FACTORS)
@pytest.mark.parametrize("percentile", PERCENTILES)
@pytest.mark.parametrize("num_qubits,rate", DEMANDS)
def test_matches_scalar_oracle(num_qubits, rate, percentile, abort_backlog_factor):
    plan = provision_for_percentile(num_qubits, rate, percentile)
    for seed, keep_records in ((1, False), (2, True)):
        _assert_same_run(plan, seed, 60, keep_records, abort_backlog_factor)


def test_grid_covers_aborting_and_completing_runs():
    outcomes = {
        _assert_same_run(
            provision_for_percentile(num_qubits, rate, percentile), 3, 60, False, 10.0
        ).completed
        for num_qubits, rate in DEMANDS
        for percentile in (50.0, 99.0)
    }
    assert outcomes == {False, True}


@pytest.mark.parametrize("block_cycles", [1, 5, 64])
@pytest.mark.parametrize(
    "plan,abort_backlog_factor",
    [
        (BandwidthPlan(1000, 0.05, 99.0, 62), 100.0),  # completes, rare stalls
        (BandwidthPlan(1000, 0.05, 75.0, 53), 100.0),  # completes, many stalls
        (BandwidthPlan(1000, 0.05, 50.0, 50), 2.0),  # aborts mid-block
        (BandwidthPlan(1000, 0.05, 50.0, 45), 100.0),  # under-provisioned: aborts
        (BandwidthPlan(100, 0.0, 50.0, 0), 100.0),  # nothing to serve
    ],
)
def test_block_boundaries_are_invisible(monkeypatch, plan, abort_backlog_factor, block_cycles):
    monkeypatch.setattr(stalling, "MAX_BLOCK_CYCLES", block_cycles)
    for seed, keep_records in ((4, False), (5, True)):
        _assert_same_run(plan, seed, 300, keep_records, abort_backlog_factor)


def test_long_run_crosses_the_default_block_cap():
    plan = provision_for_percentile(1000, 0.05, 90.0)
    result = _assert_same_run(plan, 6, stalling.MAX_BLOCK_CYCLES + 1000, False, 100.0)
    assert result.total_cycles > stalling.MAX_BLOCK_CYCLES


def test_seeded_simulators_match_the_oracle_stream():
    # An integer seed builds the same generator the oracle is handed.
    plan = provision_for_percentile(1000, 0.05, 75.0)
    result = StallSimulator(plan, seed=7).run(2000, keep_records=True)
    assert result == oracle_run(plan, np.random.default_rng(7), 2000, keep_records=True)
