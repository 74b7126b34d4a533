"""Tests for the differential sim↔asyncio conformance harness.

The fast half exercises the pure machinery — workload budgeting,
parameter scaling, transport normalization, repro serialization, and the
comparison relation on hand-built outcomes.  The slow half actually runs
both stacks: a trunk-agreement smoke and the deliberate-mutation
self-test that proves the harness *can* see a divergence (a harness that
never fires is indistinguishable from a broken one).
"""

import asyncio
import json
import math
from collections import Counter

import pytest

from repro.check import conformance
from repro.check.conformance import (
    ConformanceResult,
    compare_outcomes,
    run_conformance,
)
from repro.check.oracles import StackOutcome
from repro.check.runner import (
    DEFAULT_TIME_SCALE,
    load_repro,
    message_counts,
    normalize_for_transport,
    publisher_start,
    replay,
    write_repro,
)
from repro.check.scenario import (
    FaultSpec,
    PublisherSpec,
    Scenario,
    SubscriberSpec,
    generate,
    scenario_seed,
)
from repro.core.config import INFINITY, LivenessParams


def tiny_scenario(**overrides):
    base = dict(
        seed=7,
        topology="two_broker",
        drop_probability=0.0,
        flush_delay=0.01,
        publish_until=1.2,
        drain_until=4.0,
        pubends=("P0",),
        publishers=(PublisherSpec(pubend="P0", rate=25.0, modulus=2),),
        subscribers=(
            SubscriberSpec(
                subscriber="c1",
                broker="shb",
                pubends=("P0",),
                predicate=None,
                total_order=False,
            ),
        ),
        faults=(),
    )
    base.update(overrides)
    return Scenario(**base)


def outcome(stack, seqs=(0, 1, 2), **overrides):
    """An internally consistent StackOutcome for tiny_scenario."""
    pairs = {("P0", seq) for seq in seqs}
    fields = dict(
        stack=stack,
        published={"P0": list(seqs)},
        attempts={"P0": len(seqs)},
        delivered={"c1": set(pairs)},
        failures=[],
        converged={"P0": True},
        committed=Counter({pair: 1 for pair in pairs}),
        lifecycle_delivered=Counter({("c1",) + pair: 1 for pair in pairs}),
    )
    fields.update(overrides)
    return StackOutcome(**fields)


class TestWorkloadBudget:
    def test_message_counts_follow_rate_and_window(self):
        scenario = tiny_scenario(publish_until=2.0)
        window = 2.0 - publisher_start(0)
        assert message_counts(scenario) == {"P0": int(25.0 * window)}

    def test_message_counts_floor_at_one(self):
        scenario = tiny_scenario(
            publish_until=0.001,
            publishers=(PublisherSpec(pubend="P0", rate=1.0, modulus=2),),
        )
        assert message_counts(scenario) == {"P0": 1}

    def test_publisher_starts_are_staggered_and_deterministic(self):
        starts = [publisher_start(i) for i in range(3)]
        assert starts == sorted(starts)
        assert len(set(starts)) == 3
        assert starts == [publisher_start(i) for i in range(3)]


class TestTransportNormalization:
    def test_local_is_identity(self):
        scenario = tiny_scenario(drop_probability=0.2)
        assert normalize_for_transport(scenario, "local") is scenario

    def test_tcp_strips_wire_loss(self):
        scenario = tiny_scenario(
            drop_probability=0.2,
            jitter=0.05,
            faults=(
                FaultSpec(kind="drop_burst", target=("phb", "shb"), at=1.0,
                          duration=0.5, intensity=0.5),
                FaultSpec(kind="crash", target=("phb",), at=1.0, duration=0.5),
            ),
        )
        clean = normalize_for_transport(scenario, "tcp")
        assert clean.drop_probability == 0.0
        assert clean.jitter == 0.0
        assert [fault.kind for fault in clean.faults] == ["crash"]

    def test_sim_strips_what_needs_files_and_frames(self):
        scenario = tiny_scenario(
            drop_probability=0.2,
            faults=(
                FaultSpec(kind="crash", target=("phb",), at=1.0, duration=0.5),
                FaultSpec(kind="corrupt_log", target=("phb",), at=1.2, duration=0.0),
                FaultSpec(kind="corrupt_wire", target=(), at=1.3, duration=0.0),
                FaultSpec(kind="disk_full", target=("phb",), at=1.8, duration=0.0),
            ),
        )
        clean = normalize_for_transport(scenario, "sim")
        assert clean.drop_probability == 0.2
        assert [fault.kind for fault in clean.faults] == ["crash"]


class TestComparisonRelation:
    def test_identical_outcomes_conform(self):
        scenario = tiny_scenario()
        assert compare_outcomes(scenario, outcome("sim"), outcome("aio")) == []

    def test_stack_failures_are_prefixed(self):
        scenario = tiny_scenario()
        aio = outcome("aio", failures=["oracle: boom"])
        lines = compare_outcomes(scenario, outcome("sim"), aio)
        assert lines == ["[aio] oracle: boom"]

    def test_attempt_budget_violation_is_flagged(self):
        scenario = tiny_scenario()
        aio = outcome("aio", attempts={"P0": 5})
        lines = compare_outcomes(scenario, outcome("sim"), aio)
        assert any("count budget" in line for line in lines)

    def test_missing_delivery_diverges_on_both_axes(self):
        scenario = tiny_scenario()
        aio = outcome("aio")
        aio.delivered["c1"].discard(("P0", 1))
        lines = compare_outcomes(scenario, outcome("sim"), aio)
        assert any("never delivered" in line and "[aio]" in line
                   for line in lines)
        assert any("stacks disagree" in line for line in lines)

    def test_publication_difference_is_tolerated(self):
        # The sim published seq 3, the aio stack's attempt for it failed
        # mid-fault: each stack is exactly-once against its own record,
        # and the cross-stack delivery difference is fully explained by
        # the publication difference.
        scenario = tiny_scenario()
        sim = outcome("sim", seqs=(0, 1, 2, 3))
        aio = outcome("aio", seqs=(0, 1, 2), attempts={"P0": 4})
        sim.attempts = {"P0": 4}
        assert compare_outcomes(scenario, sim, aio) == []

    def test_non_matching_delivery_is_flagged(self):
        scenario = tiny_scenario(
            subscribers=(
                SubscriberSpec(subscriber="c1", broker="shb",
                               pubends=("P0",), predicate="g = 0",
                               total_order=False),
            ),
        )
        sim = outcome("sim", seqs=(0, 1, 2))
        sim.delivered["c1"] = {("P0", 0), ("P0", 2)}
        sim.lifecycle_delivered = Counter(
            {("c1", "P0", 0): 1, ("c1", "P0", 2): 1}
        )
        aio = outcome("aio", seqs=(0, 1, 2))
        aio.delivered["c1"] = {("P0", 0), ("P0", 1), ("P0", 2)}
        aio.lifecycle_delivered = Counter(
            {("c1", "P0", 0): 1, ("c1", "P0", 1): 1, ("c1", "P0", 2): 1}
        )
        lines = compare_outcomes(scenario, sim, aio)
        assert any("non-matching" in line and "[aio]" in line
                   for line in lines)

    def test_commit_undercount_is_tolerated(self):
        # A crash inside the log's commit-latency window loses the
        # committed *event* while the append survives — not a divergence.
        scenario = tiny_scenario()
        sim = outcome("sim")
        del sim.committed[("P0", 1)]
        assert compare_outcomes(scenario, sim, outcome("aio")) == []

    def test_phantom_commit_is_a_divergence(self):
        scenario = tiny_scenario()
        sim = outcome("sim")
        sim.committed[("P0", 99)] = 1
        lines = compare_outcomes(scenario, sim, outcome("aio"))
        assert any("absent from the publish record" in line
                   for line in lines)

    def test_duplicate_commit_event_is_a_divergence(self):
        scenario = tiny_scenario()
        aio = outcome("aio")
        aio.committed[("P0", 0)] = 2
        lines = compare_outcomes(scenario, outcome("sim"), aio)
        assert any("duplicate commit" in line and "[aio]" in line
                   for line in lines)

    def test_duplicate_delivery_event_is_a_divergence(self):
        scenario = tiny_scenario()
        aio = outcome("aio")
        aio.lifecycle_delivered[("c1", "P0", 0)] = 2
        lines = compare_outcomes(scenario, outcome("sim"), aio)
        assert any("duplicate delivery" in line for line in lines)

    def test_delivered_events_must_match_client_records(self):
        scenario = tiny_scenario()
        sim = outcome("sim")
        del sim.lifecycle_delivered[("c1", "P0", 2)]
        lines = compare_outcomes(scenario, sim, outcome("aio"))
        assert any("client records" in line and "[sim]" in line
                   for line in lines)

    def test_residual_doubt_is_a_divergence(self):
        scenario = tiny_scenario()
        aio = outcome("aio", converged={"P0": False})
        lines = compare_outcomes(scenario, outcome("sim"), aio)
        assert any("residual doubt" in line and "[aio]" in line
                   for line in lines)


class TestReproFiles:
    def test_round_trip(self, tmp_path):
        scenario = tiny_scenario()
        path = write_repro(
            scenario, judge="conform", directory=str(tmp_path), stem="case"
        )
        loaded, expect, judge, options = load_repro(path)
        assert loaded == scenario
        assert expect == "fail"  # no result recorded → assume divergent
        assert judge == "conform"
        assert options["transport"] == "local"
        assert options["time_scale"] == DEFAULT_TIME_SCALE
        assert options["mutations"] == ()

    def test_every_run_option_reaches_the_replay(self, tmp_path, monkeypatch):
        # A divergence found (and shrunk) under --corrupt-rate 0.05 must
        # replay under the same rate, not a different experiment.
        scenario = tiny_scenario()
        options = {
            "transport": "local",
            "time_scale": 0.5,
            "durable": True,
            "mutations": ["suppress-retransmit"],
            "corrupt_rate": 0.05,
        }
        result = ConformanceResult(
            scenario, outcome("sim"), outcome("aio"), options, divergences=["x"]
        )
        path = write_repro(
            scenario, result, judge="conform", directory=str(tmp_path), stem="case"
        )
        calls = []
        monkeypatch.setattr(
            conformance,
            "run_conformance",
            lambda scenario, **received: calls.append(received) or result,
        )
        assert replay(path) == (result, "fail")
        assert calls == [{**options, "mutations": ("suppress-retransmit",)}]

    def test_files_older_than_an_option_load_its_default(self, tmp_path):
        # Written before corrupt_rate and durable were persisted.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "expect": "fail",
            "judge": "conform",
            "mutations": ["suppress-retransmit"],
            "scenario": tiny_scenario().to_dict(),
        }))
        __, expect, judge, options = load_repro(str(path))
        assert (expect, judge) == ("fail", "conform")
        assert options["mutations"] == ("suppress-retransmit",)
        assert options["corrupt_rate"] == 0.0
        assert options["durable"] is False

    def test_rejects_unknown_format(self, tmp_path):
        # The pre-unification conformance format: no judge, agree/diverge.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "repro-conform/1",
            "expect": "agree",
            "scenario": tiny_scenario().to_dict(),
        }))
        with pytest.raises(ValueError, match="judge"):
            load_repro(str(path))

    def test_rejects_bad_expectation(self, tmp_path):
        scenario = tiny_scenario()
        path = write_repro(
            scenario, judge="conform", directory=str(tmp_path), stem="case"
        )
        text = (tmp_path / "case.json").read_text()
        (tmp_path / "case.json").write_text(text.replace('"fail"', '"maybe"'))
        with pytest.raises(ValueError, match="expect"):
            load_repro(str(path))


class TestMutationRegistry:
    def test_unknown_mutation_is_rejected(self):
        from repro.aio.runtime import AioSystem
        from repro.aio.transport import LocalTransport
        from repro.topology import two_broker_topology

        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")

        async def build():
            AioSystem(
                topo,
                params=LivenessParams(gct=0.05, nrt_min=0.1, dct=math.inf),
                transport=LocalTransport(seed=1),
                mutations=("drop-everything",),
            )

        with pytest.raises(ValueError, match="drop-everything"):
            asyncio.run(build())


@pytest.mark.slow
class TestDifferentialRuns:
    def test_trunk_agrees_on_a_generated_scenario(self):
        result = run_conformance(generate(scenario_seed(0, 0)))
        assert result.ok, result.divergences
        assert result.sim.attempts == result.aio.attempts
        assert not result.aio.mutated

    def test_both_legs_run_the_fault_schedule_over_tcp(self):
        """Crashes and link outages are system verbs, so the aio leg
        applies them over TcpTransport too (only bursts are stripped)."""
        scenario = tiny_scenario(
            publish_until=2.0,
            drain_until=6.0,
            faults=(
                FaultSpec(kind="crash", target=("phb",), at=0.6, duration=0.4),
                FaultSpec(kind="drop_burst", target=("phb", "shb"), at=0.5,
                          duration=0.5, intensity=0.5),
                FaultSpec(kind="link_fail", target=("phb", "shb"), at=1.2,
                          duration=0.3),
            ),
        )
        result = run_conformance(scenario, transport="tcp")
        assert result.ok, result.divergences
        assert result.aio.faults == [
            ("crash", "phb"), ("restart", "phb"),
            ("fail_link", "phb-shb"), ("recover_link", "phb-shb"),
        ]
        assert result.sim.faults == result.aio.faults

    def test_suppressed_retransmissions_are_detected(self, tmp_path):
        """The self-test: with retransmissions deliberately suppressed in
        the aio path and a lossy wire, the aio stack must lose matching
        deliveries and the harness must say so."""
        scenario = tiny_scenario(drop_probability=0.3, seed=7)
        result = run_conformance(scenario, mutations=("suppress-retransmit",))
        assert not result.ok
        assert result.aio.mutated["suppress-retransmit"] > 0
        assert any("[aio]" in line and "never delivered" in line
                   for line in result.divergences)
        # The divergence persists as a replayable repro.
        path = write_repro(
            scenario, result, judge="conform", directory=str(tmp_path),
            stem="mutant",
        )
        loaded, expect, judge, options = load_repro(path)
        assert loaded == scenario
        assert (expect, judge) == ("fail", "conform")
        assert options["mutations"] == ("suppress-retransmit",)


def test_scale_params_skips_infinities():
    from repro.check.runner import _scale_params

    params = LivenessParams(gct=0.1, nrt_min=0.3, aet=3.0, dct=INFINITY)
    scaled = _scale_params(params, 0.5)
    assert scaled.gct == pytest.approx(0.05)
    assert scaled.nrt_min == pytest.approx(0.15)
    assert scaled.aet == pytest.approx(1.5)
    assert scaled.dct == INFINITY


def test_scale_params_scales_the_durations_and_nothing_else():
    # The driver scales every float field; if LivenessParams ever grows a
    # float that is not a duration in seconds, this list is where to say so.
    import dataclasses

    from repro.check.runner import _scale_params

    durations = {
        "gct", "nrt_min", "nrt_max", "dct", "aet", "aet_check_interval",
        "silence_interval", "link_status_interval", "subend_check_interval",
        "flush_delay",
    }
    params = LivenessParams(flush_delay=0.04)
    scaled = _scale_params(params, 0.5)
    for f in dataclasses.fields(params):
        before, after = getattr(params, f.name), getattr(scaled, f.name)
        if f.name in durations:
            assert after == (before if before == INFINITY else before * 0.5)
        else:
            assert after == before and not isinstance(before, float)
