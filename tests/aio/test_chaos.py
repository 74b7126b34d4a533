"""Seeded real-time chaos (acceptance tests for PR 7, on the scenario
pipeline since PR 22).

The headline scenario: FileLog-backed pubends over real TCP, a seeded
schedule that crashes and restarts the publisher-hosting broker mid-stream
and fails/recovers a link — and the asyncio driver's verdict must still be
exactly-once with zero missing deliveries, with recovery needing no manual
intervention beyond the scheduled heal/restart.
"""

from functools import partial

import pytest

from repro.aio.chaos import _wall_clock_scenario as wall_clock
from repro.check import campaign, replay, run_scenario_aio
from repro.check.scenario import INTEGRITY_KINDS, chaos_scenario
from repro.cli import main


def outages(scenario):
    return [f for f in scenario.faults if f.kind not in INTEGRITY_KINDS]


class TestSchedule:
    def test_schedule_is_a_pure_function_of_seed(self):
        for seed in range(10):
            assert chaos_scenario(seed, 2.0) == chaos_scenario(seed, 2.0)
        assert chaos_scenario(0, 2.0).faults != chaos_scenario(1, 2.0).faults

    def test_schedule_always_crashes_the_publishing_broker(self):
        for seed in range(10):
            faults = chaos_scenario(seed, 2.0).faults
            assert ("crash", ("phb",)) in {(f.kind, f.target) for f in faults}
            assert any(f.kind == "link_fail" for f in faults)

    def test_every_outage_closes_inside_the_fault_window(self):
        for seed in range(10):
            scenario = chaos_scenario(seed, 2.0)
            assert list(scenario.faults) == sorted(
                scenario.faults, key=lambda f: f.at
            )
            for fault in scenario.faults:
                assert 0.2 * 2.0 <= fault.at
                assert fault.healed_at <= 0.72 * 2.0 + 1e-9
            # As timed verbs: every crash and failure gets its own
            # restart or recovery, and nothing is left open.
            open_faults = set()
            for __, verb, target, ___ in scenario.fault_steps():
                if verb in ("crash_broker", "fail_link"):
                    open_faults.add(target)
                else:
                    open_faults.remove(target)
            assert not open_faults

    def test_corrupt_rate_zero_leaves_schedule_untouched(self):
        for seed in range(10):
            assert chaos_scenario(seed, 2.0, corrupt_rate=0.0) == (
                chaos_scenario(seed, 2.0)
            )

    def test_corrupt_rate_one_schedules_all_three_kinds(self):
        for seed in range(10):
            scenario = chaos_scenario(seed, 2.0, corrupt_rate=1.0)
            # The corruption draws happen after the base draws, so a seed
            # keeps its outage pattern when the dial is turned.
            assert outages(scenario) == list(chaos_scenario(seed, 2.0).faults)
            by_kind = {f.kind: f for f in scenario.faults}
            assert set(INTEGRITY_KINDS) <= set(by_kind)
            phb_crash = next(
                f for f in scenario.faults
                if f.kind == "crash" and f.target == ("phb",)
            )
            # Log corruption lands while phb is down (its logs are closed;
            # every record it damages was delivered long before).
            assert phb_crash.at < by_kind["corrupt_log"].at < phb_crash.healed_at
            assert by_kind["corrupt_log"].target == ("phb",)
            assert by_kind["corrupt_wire"].target == ()
            # Disk-full fires after every outage has healed (0.8×duration
            # vs the 0.72×duration fault-window close).
            assert by_kind["disk_full"].at == pytest.approx(0.8 * 2.0)
            assert all(
                f.healed_at < by_kind["disk_full"].at for f in outages(scenario)
            )
            assert list(scenario.faults) == sorted(
                scenario.faults, key=lambda f: f.at
            )


class TestChaosRuns:
    @pytest.mark.slow
    def test_tcp_filelog_phb_crash_exactly_once(self, tmp_path):
        """The acceptance scenario: durable pubends over TCP survive a
        real kill+restart of their hosting broker."""
        result = run_scenario_aio(
            wall_clock(0, 1.5, settle=2.5, corrupt_rate=0.0),
            transport="tcp", data_dir=str(tmp_path), durable=True,
        )
        assert result.ok, result.failures
        assert result.published > 20, "run carried too little traffic"
        assert result.delivered == result.published
        assert all(result.outcome.converged.values())
        assert ("crash", "phb") in result.outcome.faults
        assert ("restart", "phb") in result.outcome.faults
        assert result.options["durable"] and (tmp_path / "P0.log").exists()

    @pytest.mark.slow
    def test_severed_link_heals_without_intervention(self):
        # Seed 2's schedule fails phb-m0 before any crash (see the
        # deterministic schedule); the supervised transport must carry
        # the backlog through after the heal.
        result = run_scenario_aio(
            wall_clock(2, 1.5, settle=2.5, corrupt_rate=0.0),
            transport="tcp", durable=True,
        )
        assert result.ok, result.failures
        assert result.outcome.faults[0] == ("fail_link", "phb-m0")

    @pytest.mark.slow
    def test_local_transport_profile(self):
        result = run_scenario_aio(
            wall_clock(3, 1.2, settle=2.0, corrupt_rate=0.0),
            transport="local", durable=True,
        )
        assert result.ok, result.failures

    def test_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            run_scenario_aio(chaos_scenario(0, 2.0), transport="carrier-pigeon")

    @pytest.mark.slow
    def test_corruption_injection_detected_and_healed(self, tmp_path):
        """The integrity acceptance scenario: log bit-flips while the
        broker is down, a damaged wire frame, and a full disk — all in
        one run — and delivery is still exactly-once, with every
        injected fault accounted for by a detection counter."""
        result = run_scenario_aio(
            wall_clock(0, 1.5, settle=2.5, corrupt_rate=1.0),
            transport="tcp", data_dir=str(tmp_path), durable=True,
        )
        assert result.ok, result.failures
        assert result.delivered == result.published
        # Every kind injected AND detected (the driver itself fails the
        # verdict on an injected-but-undetected fault; assert both ways).
        injected = {kind for kind, __ in result.outcome.faults}
        assert set(INTEGRITY_KINDS) <= injected
        detected = result.outcome.detected
        assert detected["log_records_quarantined"] >= 1
        assert detected["aio_frames_rejected_crc"] >= 1
        assert detected["log_append_errors"] >= 1
        # The quarantine sidecars survive for forensics.
        assert any(tmp_path.glob("*.log.quarantine"))


@pytest.mark.slow
def test_a_broken_runtime_leaves_a_shrunk_replayable_repro(tmp_path, capsys):
    """What sharing the pipeline buys chaos: a failing real-time run is
    shrunk and written down, and ``repro replay`` reproduces it.  The
    defect is the driver's own self-test mutation (retransmissions
    silently discarded), which the chaos outages turn into lost messages."""
    report = campaign(
        0,
        1,
        lambda index: chaos_scenario(index, 3.0).with_(drain_until=8.0),
        partial(run_scenario_aio, mutations=("suppress-retransmit",)),
        stem="chaos",
        shrink_budget=4,
        repro_dir=str(tmp_path),
    )
    [failed] = report.failures
    assert "exactly-once" in failed.oracles_failed
    assert failed.outcome.mutated["suppress-retransmit"] > 0

    [path] = report.repro_paths
    replayed, expect = replay(path)
    assert expect == "fail" and not replayed.ok
    assert replayed.options["mutations"] == ["suppress-retransmit"]
    assert len(replayed.scenario.faults) < len(failed.scenario.faults)
    assert "shrunk from seed 0" in replayed.scenario.note

    assert main(["replay", path]) == 0
    out = capsys.readouterr().out
    assert "chaos expected fail, got fail OK" in out
    assert "mutated={'suppress-retransmit'" in out
    assert "never delivered" in out
