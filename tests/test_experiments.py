"""Tests of the experiment drivers (small configurations).

The benchmarks assert the paper's claims at full (scaled) size; these
tests assert the drivers themselves are sound: field plumbing, windowing,
determinism, and parameter validation.
"""

import pytest

from repro.experiments.fig45 import (
    gd_minus_be,
    run_overhead_point,
    run_overhead_sweep,
)
from repro.experiments.fig678 import FAULTS, run_fault_experiment


class TestOverheadDriver:
    def test_point_fields(self):
        point = run_overhead_point("gd", 40, input_rate=100, warmup=0.5, measure=2.0)
        assert point.protocol == "gd"
        assert point.n_subscribers == 40
        assert 0 <= point.shb_cpu <= 1
        assert 0 <= point.phb_cpu <= 1
        assert point.remote_median_ms > 0
        assert point.delivered > 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_overhead_point("carrier-pigeon", 10)

    def test_sweep_covers_grid(self):
        points = run_overhead_sweep(
            [10, 20], input_rate=60, warmup=0.5, measure=1.5
        )
        keys = {(p.protocol, p.n_subscribers) for p in points}
        assert keys == {
            ("gd", 10),
            ("gd", 20),
            ("best-effort", 10),
            ("best-effort", 20),
        }

    def test_gd_minus_be_deltas(self):
        points = run_overhead_sweep([10], input_rate=60, warmup=0.5, measure=1.5)
        deltas = gd_minus_be(points)
        assert set(deltas) == {10}
        assert deltas[10]["remote_latency_gap_ms"] > 50  # the logging delay

    def test_gd_latency_gap_tracks_commit_latency(self):
        fast = run_overhead_point(
            "gd", 10, input_rate=60, warmup=0.5, measure=1.5, log_commit_latency=0.02
        )
        slow = run_overhead_point(
            "gd", 10, input_rate=60, warmup=0.5, measure=1.5, log_commit_latency=0.08
        )
        assert slow.remote_median_ms - fast.remote_median_ms == pytest.approx(
            60, abs=15
        )

    def test_deterministic(self):
        a = run_overhead_point("gd", 15, input_rate=60, warmup=0.5, measure=1.5)
        b = run_overhead_point("gd", 15, input_rate=60, warmup=0.5, measure=1.5)
        assert a == b


class TestFaultDriver:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            run_fault_experiment("zombie-apocalypse")

    @pytest.mark.parametrize("fault", FAULTS)
    def test_small_runs_stay_exactly_once(self, fault):
        result = run_fault_experiment(
            fault,
            rate=10.0,
            n_pubends=2,
            fault_at=2.0,
            stall=1.0,
            link_outage=3.0,
            broker_downtime=4.0,
            phb_downtime=4.0,
            settle=8.0,
        )
        assert result.fault == fault
        assert result.all_exactly_once()
        assert set(result.latency) == {f"sub_s{i}" for i in range(1, 6)}

    def test_result_accessors(self):
        result = run_fault_experiment(
            "link_b1_s1",
            rate=10.0,
            n_pubends=2,
            fault_at=2.0,
            stall=1.0,
            link_outage=3.0,
            settle=8.0,
        )
        assert result.max_latency("sub_s1") >= result.steady_latency(
            "sub_s1", before=1.5
        )
        assert result.nack_range_total("s1") == sum(
            r for __, r in result.nacks.get("s1", [])
        )
        assert [line.split()[3] for line in result.fault_log] == [
            "stall_link", "fail_link", "recover_link",
        ]

    def test_deterministic(self):
        kw = dict(
            rate=10.0, n_pubends=2, fault_at=2.0, stall=1.0,
            link_outage=3.0, settle=8.0,
        )
        a = run_fault_experiment("link_b1_s1", **kw)
        b = run_fault_experiment("link_b1_s1", **kw)
        assert a.latency == b.latency
        assert a.nacks == b.nacks
