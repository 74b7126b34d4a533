"""The simulated-clock driver, the campaign loop and repro files:
bit-for-bit determinism, verdicts, shrinking on failure."""

import json
import os
from types import SimpleNamespace

from repro.check import (
    ORACLES,
    FaultSpec,
    PublisherSpec,
    Scenario,
    SubscriberSpec,
    campaign,
    chaos_scenario,
    fuzz,
    generate,
    load_repro,
    run_scenario,
    run_scenario_aio,
    run_seed,
    scenario_seed,
    write_repro,
)

# A seed whose scenario runs quickly and passes (stays stable because
# generation is deterministic).
PASS_SEED = scenario_seed(42, 0)


class TestDeterminism:
    def test_same_seed_bit_identical_digest(self):
        first = run_seed(PASS_SEED)
        second = run_seed(PASS_SEED)
        assert first.digest == second.digest
        assert first.published == second.published
        assert first.delivered == second.delivered
        assert first.fault_log == second.fault_log

    def test_different_seeds_different_digests(self):
        a = run_seed(scenario_seed(42, 0))
        b = run_seed(scenario_seed(42, 1))
        assert a.digest != b.digest


class TestVerdicts:
    def test_clean_scenario_passes_all_oracles(self):
        result = run_seed(PASS_SEED)
        assert result.ok, result.failures
        assert result.oracles_failed == []
        assert result.sweeps > 0  # the continuous oracles actually ran
        assert result.published > 0
        assert result.delivered > 0

    def test_disable_recovery_ablation_is_caught(self):
        # With curiosity, nacks and AET all disabled, ambient drops become
        # permanent losses; the oracle suite must notice.
        scenario = generate(PASS_SEED).with_(
            disable_recovery=True, drop_probability=0.08
        )
        result = run_scenario(scenario)
        assert not result.ok
        assert set(result.oracles_failed) <= set(ORACLES)

    def test_fuzz_campaign_reports_runs(self):
        report = fuzz(base_seed=42, runs=3, shrink=False)
        assert report.runs == 3
        assert report.ok
        assert report.elapsed > 0

    def test_chaos_scenarios_hold_under_the_continuous_oracles(self):
        # The chaos fault pattern (PHB crash + link outage + optional
        # mid-broker crash) under truncation safety, soft-state size and
        # monotonicity — oracles a wall-clock run cannot sweep.
        for seed in range(20):
            scenario = chaos_scenario(seed, 2.0)
            result = run_scenario(scenario)
            assert result.ok, (seed, result.failures)
            assert result.sweeps > 0
            assert result.published > 20
            assert any(line.endswith(" crash phb") for line in result.fault_log)
            assert result.digest == run_scenario(scenario).digest

    def test_simulator_skips_the_integrity_faults(self):
        # No files, no frames: the three kinds are stripped, not no-ops.
        plain = run_scenario(chaos_scenario(3, 2.0))
        corrupting = run_scenario(chaos_scenario(3, 2.0, corrupt_rate=1.0))
        assert len(corrupting.scenario.faults) == len(plain.scenario.faults) + 3
        assert corrupting.fault_log == plain.fault_log
        assert corrupting.digest == plain.digest


class TestBothClocks:
    def test_the_drivers_apply_the_same_faults(self):
        # Every generated fault kind, each the same verbs on both backends:
        # a stall is a stall on the asyncio runtime too, not a crash.
        link, other = ("phb", "m0"), ("m0", "shb")
        scenario = Scenario(
            seed=5,
            topology="chain",
            pubends=("P0",),
            publishers=(PublisherSpec("P0", rate=20.0),),
            subscribers=(SubscriberSpec("c0", "shb", ("P0",)),),
            faults=(
                FaultSpec("crash", ("m0",), at=0.5, duration=0.4),
                FaultSpec("stall_crash", ("phb",), at=1.0, duration=0.4, stall=0.3),
                FaultSpec("stall_restart", ("m0",), at=2.2, duration=0.4),
                FaultSpec("link_fail", link, at=2.8, duration=0.3),
                FaultSpec("stall_link_fail", other, at=3.2, duration=0.3, stall=0.3),
                FaultSpec("drop_burst", link, at=4.0, duration=0.4, intensity=0.3),
                FaultSpec("reorder_burst", other, at=4.0, duration=0.4, intensity=0.01),
                FaultSpec("corrupt_burst", link, at=4.5, duration=0.3, intensity=0.3),
            ),
            publish_until=5.0,
            drain_until=15.0,
        )

        def applied(result):
            # "t=… (tick …) <kind> <target>", one line per FaultEvent.
            return [tuple(line.split()[3:]) for line in result.fault_log]

        sim = applied(run_scenario(scenario))
        assert ("stall_broker", "phb") in sim and ("stall_link", "m0-shb") in sim
        assert len(sim) == sum(len(fault.steps()) for fault in scenario.faults)
        assert applied(run_scenario_aio(scenario)) == sim


class TestCampaign:
    """The one loop behind fuzz, conform and chaos, on a fake judge."""

    @staticmethod
    def run(tmp_path, failing, **options):
        seen = []

        def run_fn(scenario):
            seen.append(scenario.seed)
            return SimpleNamespace(
                scenario=scenario,
                ok=scenario.seed not in failing,
                failures=["[fake] boom"],
                options={"transport": "tcp"},
                summary=lambda: f"seed={scenario.seed}",
            )

        lines = []
        report = campaign(
            7, 5, lambda index: generate(100 + index).with_(faults=()), run_fn,
            stem="chaos", repro_dir=str(tmp_path), progress=lines.append,
            **options,
        )
        return report, seen, lines

    def test_stops_shrinks_and_writes_at_the_first_failure(self, tmp_path):
        report, seen, lines = self.run(tmp_path, failing={102})
        assert report.runs == 3 and not report.ok
        assert [r.scenario.seed for r in report.failures] == [102]
        # Runs 100..102, then the shrinker's probes of 102 only.
        assert seen[:3] == [100, 101, 102] and set(seen[3:]) == {102}
        # <stem>-<base seed>-<run index>.json, naming its judge.
        assert report.repro_paths == [os.path.join(str(tmp_path), "chaos-7-2.json")]
        scenario, expect, judge, options = load_repro(report.repro_paths[0])
        assert (scenario.seed, expect, judge) == (102, "fail", "chaos")
        assert options["transport"] == "tcp"
        assert "  [fake] boom" in lines

    def test_keep_going_runs_every_index(self, tmp_path):
        report, seen, __ = self.run(
            tmp_path, failing={101, 103}, keep_going=True, shrink=False
        )
        assert report.runs == 5
        assert [r.scenario.seed for r in report.failures] == [101, 103]
        assert seen == [100, 101, 102, 103, 104]
        assert report.repro_paths == [] and not os.listdir(tmp_path)

    def test_time_budget_stops_starting_runs(self, tmp_path):
        report, seen, lines = self.run(tmp_path, failing=set(), time_budget=-1.0)
        assert report.runs == 0 and report.ok and seen == []
        assert any("time budget" in line for line in lines)


class TestReproFiles:
    def test_write_and_load_round_trip(self, tmp_path):
        scenario = generate(PASS_SEED)
        result = run_scenario(scenario)
        path = write_repro(
            scenario, result, directory=str(tmp_path), stem="round-trip"
        )
        loaded, expect, judge, options = load_repro(path)
        assert loaded == scenario
        assert expect == ("pass" if result.ok else "fail")
        assert (judge, options) == ("fuzz", {})

    def test_repro_file_is_stable_json(self, tmp_path):
        scenario = generate(PASS_SEED)
        path = write_repro(scenario, directory=str(tmp_path), stem="stable")
        with open(path) as handle:
            obj = json.load(handle)
        assert obj["scenario"]["seed"] == PASS_SEED
        assert obj["expect"] in ("pass", "fail")
