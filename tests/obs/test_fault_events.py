"""Fault injections surface on the observability plane.

Every applied fault reaches ``system.obs`` through the lifecycle hub's
``fault`` hook and is kept twice: the ``repro_faults_injected_total``
counter (labelled by fault kind) and the structured
:class:`~repro.obs.observability.FaultEvent` list — so fault activity
lands in the same snapshot as the protocol counters it perturbs.  Kinds
are the hub's: a broker crash is ``crash`` / ``restart`` (emitted by the
system's fault verb).
"""

from repro.core.config import LivenessParams
from repro.core.ticks import tick_of_time
from repro.obs import CausalTracer
from repro.obs.observability import FaultEvent
from repro.topology import two_broker_topology


def build_system(seed: int = 9):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo.build(seed=seed, params=LivenessParams(gct=0.1, nrt_min=0.3))


def counter_value(obs, name, **labels):
    for entry in obs.snapshot():
        if entry["name"] == name and entry.get("labels", {}) == labels:
            return entry["value"]
    return None


class TestFaultEventObservability:
    def test_injections_count_into_obs_by_kind(self):
        system = build_system()

        system.fail_link("phb", "shb")
        system.recover_link("phb", "shb")
        system.crash_broker("phb")
        system.restart_broker("phb")
        system.crash_broker("phb")
        system.restart_broker("phb")

        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="fail_link"
        ) == 1
        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="crash"
        ) == 2
        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="restart"
        ) == 2
        # One record per crash, under one kind vocabulary.
        assert [e.kind for e in system.obs.fault_events] == [
            "fail_link", "recover_link", "crash", "restart", "crash", "restart",
        ]

    def test_structured_events_reach_obs_in_order(self):
        system = build_system()

        system.scheduler.call_at(0.5, lambda: system.stall_broker("phb"))
        system.scheduler.call_at(1.0, lambda: system.restart_broker("phb"))
        system.run_until(1.5)

        # The broker never died, so its host has no restart to report;
        # the stall-clearing restart_broker still reaches the hub once.
        events = system.obs.fault_events
        assert [e.kind for e in events] == ["stall_broker", "restart"]
        assert all(isinstance(e, FaultEvent) for e in events)
        for event in events:
            assert event.tick == tick_of_time(event.time)

    def test_verbs_the_host_does_not_act_on_are_still_reported_once(self):
        """crash_broker on a dead broker and restart_broker on a live one
        change no host state; every observer still sees the verb, once."""
        system = build_system()
        tracer = CausalTracer(system).install()

        system.crash_broker("phb")
        system.crash_broker("phb")
        system.restart_broker("phb")
        system.restart_broker("phb")

        kinds = ["crash", "crash", "restart", "restart"]
        assert [e.kind for e in system.obs.fault_events] == kinds
        assert [
            (span.attrs["kind"], span.node)
            for span in tracer.spans
            if span.name == "fault"
        ] == [(kind, "phb") for kind in kinds]
        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="crash"
        ) == 2

    def test_fault_counter_appears_in_prometheus_export(self):
        system = build_system()
        system.stall_broker("phb")
        text = system.obs.prometheus()
        assert "repro_faults_injected_total" in text
        assert 'kind="stall_broker"' in text
