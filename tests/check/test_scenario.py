"""Scenario generation and serialization: determinism and fairness."""

import json

import pytest

from repro.aio.runtime import AioSystem
from repro.check import (
    FORMAT,
    FaultSpec,
    Scenario,
    build_topology,
    chaos_scenario,
    generate,
    scenario_seed,
)
from repro.check.scenario import INTEGRITY_KINDS
from repro.topology import System

SEEDS = [scenario_seed(7, i) for i in range(20)]


class TestGeneration:
    def test_same_seed_same_scenario(self):
        for seed in SEEDS[:5]:
            assert generate(seed) == generate(seed)

    def test_different_seeds_differ(self):
        scenarios = [generate(seed) for seed in SEEDS]
        assert len({s.to_json() for s in scenarios}) > 1

    def test_scenario_seed_is_deterministic_and_mixed(self):
        assert scenario_seed(7, 3) == scenario_seed(7, 3)
        assert scenario_seed(7, 3) != scenario_seed(7, 4)
        assert scenario_seed(7, 3) != scenario_seed(8, 3)

    def test_faults_heal_before_the_drain_ends(self):
        # Fairness: every fault is healed with slack before the drain
        # deadline, so a failing run is a protocol bug, not an unfair
        # schedule.
        for seed in SEEDS:
            scenario = generate(seed)
            for fault in scenario.faults:
                assert fault.healed_at <= scenario.publish_until + 3.0 + 1e-9

    def test_shb_brokers_are_never_crashed(self):
        # Crashing an SHB voids its subscriptions (outside the paper's
        # failure model), so generated schedules must never do it.
        for seed in SEEDS:
            scenario = generate(seed)
            meta = build_topology(scenario)
            shbs = set(meta.shb_brokers)
            for fault in scenario.faults:
                if fault.kind in ("crash", "stall_crash", "stall_restart"):
                    assert fault.target[0] not in shbs

    def test_fault_targets_exist_in_the_topology(self):
        for seed in SEEDS:
            scenario = generate(seed)
            meta = build_topology(scenario)
            links = {frozenset(pair) for pair in meta.links}
            for fault in scenario.faults:
                if len(fault.target) == 2:
                    assert frozenset(fault.target) in links
                else:
                    assert fault.target[0] in meta.crashable_brokers


class TestSerialization:
    def test_json_round_trip(self):
        for seed in SEEDS[:10]:
            scenario = generate(seed)
            again = Scenario.from_dict(json.loads(scenario.to_json()))
            assert again == scenario

    def test_format_marker(self):
        scenario = generate(SEEDS[0])
        obj = json.loads(scenario.to_json())
        assert obj["format"] == FORMAT

    def test_with_replaces_fields(self):
        scenario = generate(SEEDS[0])
        ablated = scenario.with_(disable_recovery=True, faults=())
        assert ablated.disable_recovery
        assert ablated.faults == ()
        assert ablated.seed == scenario.seed
        assert not scenario.disable_recovery  # original untouched

    def test_disable_recovery_params(self):
        scenario = generate(SEEDS[0]).with_(disable_recovery=True)
        params = scenario.params()
        assert params.gct == float("inf")
        assert params.aet == float("inf")

    def test_fault_spec_round_trip(self):
        fault = FaultSpec(
            kind="stall_crash", target=("b1",), at=1.5, duration=2.0, stall=0.5
        )
        scenario = generate(SEEDS[0]).with_(faults=(fault,))
        again = Scenario.from_dict(json.loads(scenario.to_json()))
        assert again.faults == (fault,)


# ---------------------------------------------------------------------------
# FaultSpec.steps: the one translation from fault kinds to timed verbs
# ---------------------------------------------------------------------------

BROKER, LINK = ("m0",), ("m0", "shb")

#: kind -> (spec, its steps as (t, verb, kwargs)); args are always the
#: spec's target.  at=1.0, stall=0.5 (stall kinds only), duration=2.0.
STEP_TABLE = {
    "crash": (
        FaultSpec("crash", BROKER, at=1.0, duration=2.0),
        [(1.0, "crash_broker", {}), (3.0, "restart_broker", {})],
    ),
    "stall_crash": (
        FaultSpec("stall_crash", BROKER, at=1.0, duration=2.0, stall=0.5),
        [
            (1.0, "stall_broker", {}),
            (1.5, "unstall_broker", {}),
            (1.5, "crash_broker", {}),
            (3.5, "restart_broker", {}),
        ],
    ),
    "stall_restart": (
        FaultSpec("stall_restart", BROKER, at=1.0, duration=2.0),
        [(1.0, "stall_broker", {}), (3.0, "restart_broker", {})],
    ),
    "link_fail": (
        FaultSpec("link_fail", LINK, at=1.0, duration=2.0),
        [(1.0, "fail_link", {}), (3.0, "recover_link", {})],
    ),
    "stall_link_fail": (
        FaultSpec("stall_link_fail", LINK, at=1.0, duration=2.0, stall=0.5),
        [
            (1.0, "stall_link", {}),
            (1.5, "fail_link", {}),
            (3.5, "recover_link", {}),
        ],
    ),
    "drop_burst": (
        FaultSpec("drop_burst", LINK, at=1.0, duration=2.0, intensity=0.4),
        [
            (1.0, "set_link_pathology", {"drop_probability": 0.4}),
            (3.0, "clear_link_pathology", {}),
        ],
    ),
    "reorder_burst": (
        FaultSpec("reorder_burst", LINK, at=1.0, duration=2.0, intensity=0.02),
        [
            (1.0, "set_link_pathology", {"jitter": 0.02}),
            (3.0, "clear_link_pathology", {}),
        ],
    ),
    "corrupt_burst": (
        FaultSpec("corrupt_burst", LINK, at=1.0, duration=2.0, intensity=0.3),
        [
            (1.0, "set_link_pathology", {"corrupt_probability": 0.3}),
            (3.0, "clear_link_pathology", {}),
        ],
    ),
}

#: Each opening verb and the verb that must close it later.
CLOSES = {
    "crash_broker": "restart_broker",
    "stall_broker": "restart_broker",
    "fail_link": "recover_link",
    "stall_link": "recover_link",
    "set_link_pathology": "clear_link_pathology",
}


class TestFaultSteps:
    def test_the_table_covers_every_generated_kind(self):
        generated = {
            fault.kind
            for i in range(200)
            for fault in generate(scenario_seed(0, i)).faults
        }
        assert generated == set(STEP_TABLE)
        chaotic = {
            fault.kind
            for seed in range(20)
            for fault in chaos_scenario(seed, 2.0, corrupt_rate=1.0).faults
        }
        assert chaotic == {"crash", "link_fail"} | set(INTEGRITY_KINDS)

    @pytest.mark.parametrize("kind", INTEGRITY_KINDS)
    def test_an_integrity_kind_is_one_verb_of_the_asyncio_system(self, kind):
        target = () if kind == "corrupt_wire" else BROKER
        spec = FaultSpec(kind, target, at=1.0, duration=0.0)
        assert spec.steps() == [(1.0, kind, target, {})]
        assert spec.steps(time_scale=0.5) == [(0.5, kind, target, {})]
        assert callable(getattr(AioSystem, kind))
        # Files and frames exist on one backend: no no-op twin elsewhere.
        assert not hasattr(System, kind)

    @pytest.mark.parametrize("kind", sorted(STEP_TABLE))
    def test_each_kind_expands_to_the_expected_verbs(self, kind):
        spec, expected = STEP_TABLE[kind]
        steps = spec.steps()
        assert [(t, verb, kw) for t, verb, __, kw in steps] == [
            (pytest.approx(t), verb, kw) for t, verb, kw in expected
        ]
        assert all(args == spec.target for __, ___, args, ____ in steps)

    @pytest.mark.parametrize("kind", sorted(STEP_TABLE))
    def test_every_verb_exists_on_its_executors_target(self, kind):
        # One vocabulary: every verb of every kind on both backends.
        for __, verb, ___, ____ in STEP_TABLE[kind][0].steps():
            assert callable(getattr(AioSystem, verb))
            assert callable(getattr(System, verb))

    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("kind", sorted(STEP_TABLE))
    def test_every_schedule_is_balanced(self, kind, scaled):
        # Unscaled is the simulator's schedule, scaled the asyncio driver's.
        steps = STEP_TABLE[kind][0].steps(time_scale=0.35 if scaled else 1.0)
        assert steps == sorted(steps, key=lambda step: step[0])
        for i, (__, verb, args, ___) in enumerate(steps):
            if verb in CLOSES:
                assert any(
                    later == CLOSES[verb] and later_args == args
                    for __, later, later_args, ___ in steps[i + 1:]
                ), f"{verb}{args} is never closed"

    def test_time_scale_scales_times_and_the_jitter_but_no_probability(self):
        spec = STEP_TABLE["reorder_burst"][0]
        (t0, __, ___, on), (t1, *____) = spec.steps(time_scale=0.5)
        assert (t0, t1, on) == (0.5, 1.5, {"jitter": pytest.approx(0.01)})
        spec = STEP_TABLE["drop_burst"][0]
        assert spec.steps(time_scale=0.5)[0][3] == {"drop_probability": 0.4}

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor", BROKER, at=1.0, duration=1.0).steps()

    def test_scenario_fault_steps_merges_in_time_order(self):
        scenario = Scenario(
            seed=1,
            topology="chain",
            faults=(STEP_TABLE["stall_crash"][0], STEP_TABLE["drop_burst"][0]),
        )
        steps = scenario.fault_steps()
        assert [t for t, *__ in steps] == sorted(t for t, *__ in steps)
        assert len(steps) == 6
