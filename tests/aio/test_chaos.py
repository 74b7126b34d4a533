"""The seeded real-time chaos harness (acceptance tests for PR 7).

The headline scenario: FileLog-backed pubends over real TCP, a seeded
schedule that crashes and restarts the publisher-hosting broker mid-stream
and fails/recovers a link — and the ``repro.check``-style offline verdict
must still be exactly-once with zero missing deliveries, with recovery
needing no manual intervention beyond the scheduled heal/restart.
"""

import pytest

from repro.aio.chaos import chaos_schedule, run_chaos


class TestSchedule:
    def test_schedule_is_a_pure_function_of_seed(self):
        for seed in range(10):
            assert chaos_schedule(seed, 2.0) == chaos_schedule(seed, 2.0)
        assert chaos_schedule(0, 2.0) != chaos_schedule(1, 2.0)

    def test_schedule_always_crashes_the_publishing_broker(self):
        for seed in range(10):
            actions = chaos_schedule(seed, 2.0)
            kinds = {(a.kind, a.target) for a in actions}
            assert ("crash_broker", ("b0",)) in kinds
            assert ("restart_broker", ("b0",)) in kinds
            assert any(k == "fail_link" for k, __ in kinds)
            assert any(k == "recover_link" for k, __ in kinds)

    def test_every_outage_closes_inside_the_fault_window(self):
        for seed in range(10):
            actions = chaos_schedule(seed, 2.0)
            assert actions == sorted(actions, key=lambda a: a.t)
            open_faults = {}
            for action in actions:
                if action.kind in ("crash_broker", "fail_link"):
                    open_faults[action.target] = action
                else:
                    assert action.target in open_faults
                    del open_faults[action.target]
                assert action.t <= 0.72 * 2.0 + 1e-9
            assert not open_faults

    def test_corrupt_rate_zero_leaves_schedule_untouched(self):
        # The corruption draws happen after the base draws, so existing
        # seeds reproduce their exact schedules when the dial is off.
        for seed in range(10):
            assert chaos_schedule(seed, 2.0, corrupt_rate=0.0) == (
                chaos_schedule(seed, 2.0)
            )

    def test_corrupt_rate_one_schedules_all_three_kinds(self):
        for seed in range(10):
            actions = chaos_schedule(seed, 2.0, corrupt_rate=1.0)
            base = chaos_schedule(seed, 2.0)
            assert [a for a in actions if a.kind not in
                    ("corrupt-log", "corrupt-wire", "disk-full")] == list(base)
            by_kind = {a.kind: a for a in actions}
            kill = next(
                a.t for a in actions
                if a.kind == "crash_broker" and a.target == ("b0",)
            )
            restart = next(
                a.t for a in actions
                if a.kind == "restart_broker" and a.target == ("b0",)
            )
            # Log corruption lands while b0 is down (its logs are closed;
            # every record it damages was delivered long before).
            assert kill < by_kind["corrupt-log"].t < restart
            assert by_kind["corrupt-log"].target == ("b0",)
            assert by_kind["corrupt-wire"].target == ("wire",)
            # Disk-full fires after every outage has healed (0.8×duration
            # vs the 0.72×duration fault-window close).
            assert by_kind["disk-full"].t == pytest.approx(0.8 * 2.0)
            assert actions == sorted(actions, key=lambda a: a.t)


class TestChaosRuns:
    @pytest.mark.slow
    def test_tcp_filelog_phb_crash_exactly_once(self, tmp_path):
        """The acceptance scenario: durable pubends over TCP survive a
        real kill+restart of their hosting broker."""
        report = run_chaos(
            seed=0, duration=1.5, transport="tcp", data_dir=str(tmp_path)
        )
        assert report.ok, report.render()
        assert report.published > 20, "run carried too little traffic"
        assert report.reports["sub0"].missing == []
        assert report.reports["sub0"].unexpected == []
        assert ("crash_broker", ("b0",)) in {
            (a.kind, a.target) for a in report.actions
        }
        assert report.counters["broker_restarts"] >= 1

    @pytest.mark.slow
    def test_severed_link_heals_without_intervention(self):
        # Seed 2's schedule fails b0-b1 before any crash (see the
        # deterministic schedule); the supervised transport must carry
        # the backlog through after the heal.
        report = run_chaos(seed=2, duration=1.5, transport="tcp")
        assert report.ok, report.render()
        assert any(a.kind == "fail_link" for a in report.actions)

    @pytest.mark.slow
    def test_local_transport_profile(self):
        report = run_chaos(seed=3, duration=1.2, transport="local", settle=2.0)
        assert report.ok, report.render()

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            run_chaos(transport="carrier-pigeon")

    @pytest.mark.slow
    def test_corruption_injection_detected_and_healed(self, tmp_path):
        """The integrity acceptance scenario: log bit-flips while the
        broker is down, a damaged wire frame, and a full disk — all in
        one run — and delivery is still exactly-once, with every
        injected fault accounted for by a detection counter."""
        report = run_chaos(
            seed=0,
            duration=1.5,
            transport="tcp",
            data_dir=str(tmp_path),
            corrupt_rate=1.0,
        )
        assert report.ok, report.render()
        assert report.reports["sub0"].missing == []
        assert report.reports["sub0"].unexpected == []
        kinds = {a.kind for a in report.actions}
        assert {"corrupt-log", "corrupt-wire", "disk-full"} <= kinds
        # Every kind injected AND detected (run_chaos itself fails the
        # verdict on an injected-but-undetected fault; assert both ways).
        assert report.counters["log_corruptions_injected"] >= 1
        assert report.counters["log_records_quarantined"] >= 1
        assert report.counters["wire_corruptions_injected"] >= 1
        assert report.counters["frames_rejected_crc"] >= 1
        assert report.counters["disk_full_injected"] >= 1
        assert report.counters["log_append_errors"] >= 1
        # The quarantine sidecars survive for forensics.
        assert any(tmp_path.glob("*.log.quarantine"))
