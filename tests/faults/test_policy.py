"""Unit tests for FaultPolicy validation and the deterministic backoff."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import FaultPolicy, FaultReport, SkippedShard


class TestFaultPolicyValidation:
    def test_defaults_are_valid(self):
        policy = FaultPolicy()
        assert policy.max_retries == 2
        assert policy.shard_timeout is None
        assert policy.on_exhausted == "raise"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_cap": -1.0},
            {"shard_timeout": 0},
            {"shard_timeout": -2.5},
            {"on_exhausted": "ignore"},
            {"max_pool_respawns": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPolicy(**kwargs)


class TestBackoffDelay:
    def test_deterministic_for_fixed_seed_shard_retry(self):
        policy = FaultPolicy(backoff_base=0.1)
        first = policy.backoff_delay(42, 3, 1)
        assert first == policy.backoff_delay(42, 3, 1)

    def test_distinct_shards_and_retries_decorrelate(self):
        policy = FaultPolicy(backoff_base=0.1)
        delays = {
            policy.backoff_delay(42, shard, retry)
            for shard in range(4)
            for retry in (1, 2)
        }
        assert len(delays) == 8

    def test_exponential_envelope_with_jitter_band(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_cap=100.0)
        for retry in (1, 2, 3, 4):
            ceiling = 0.1 * 2 ** (retry - 1)
            delay = policy.backoff_delay(7, 0, retry)
            assert ceiling * 0.5 <= delay < ceiling

    def test_cap_bounds_the_delay(self):
        policy = FaultPolicy(backoff_base=1.0, backoff_cap=2.0)
        assert policy.backoff_delay(7, 0, 10) < 2.0

    def test_zero_base_means_no_sleep(self):
        assert FaultPolicy(backoff_base=0.0).backoff_delay(7, 0, 3) == 0.0

    def test_retry_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPolicy().backoff_delay(7, 0, 0)


class TestFaultReport:
    def test_aggregates(self):
        report = FaultReport()
        assert report.faults_handled == 0
        assert report.skipped_trials == 0
        report.retries = 3
        report.pool_respawns = 1
        report.skipped_shards.append(
            SkippedShard(shard_index=2, trials=500, attempts=4, error="boom")
        )
        assert report.faults_handled == 5
        assert report.skipped_trials == 500
