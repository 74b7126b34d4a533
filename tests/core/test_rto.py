"""Unit tests for the TCP-style nack repetition estimator."""

import pytest

from repro.core.rto import RtoEstimator


class TestRtoEstimator:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RtoEstimator(min_interval=0)
        with pytest.raises(ValueError):
            RtoEstimator(min_interval=1.0, max_interval=0.5)

    def test_initial_interval_at_least_min(self):
        est = RtoEstimator(min_interval=0.6)
        assert est.interval() >= 0.6

    def test_first_sample_seeds_estimate(self):
        est = RtoEstimator(min_interval=0.1)
        est.sample(1.0)
        # srtt=1.0, rttvar=0.5 -> rto=3.0
        assert est.interval() == pytest.approx(3.0)

    def test_stable_rtt_converges(self):
        est = RtoEstimator(min_interval=0.01)
        for __ in range(100):
            est.sample(0.2)
        assert est.interval() < 0.5

    def test_rejects_negative_sample(self):
        est = RtoEstimator(min_interval=0.1)
        with pytest.raises(ValueError):
            est.sample(-1.0)

    def test_interval_never_below_min(self):
        est = RtoEstimator(min_interval=0.6)
        for __ in range(50):
            est.sample(0.001)
        assert est.interval() == 0.6

    def test_counters(self):
        est = RtoEstimator(min_interval=0.1)
        est.sample(0.2)
        est.sample(0.3)
        assert est.samples == 2
