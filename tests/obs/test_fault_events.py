"""Fault injections surface on the observability plane.

Every applied fault reaches ``system.obs`` through the lifecycle hub's
``fault`` hook and is kept twice: the ``repro_faults_injected_total``
counter (labelled by fault kind) and the structured
:class:`~repro.obs.observability.FaultEvent` list — so fault activity
lands in the same snapshot as the protocol counters it perturbs.  Kinds
are the hub's: a broker crash is ``crash`` / ``restart`` (emitted by the
system's fault verb), whoever asked for it.
"""

from repro.core.config import LivenessParams
from repro.core.ticks import tick_of_time
from repro.faults.injector import FaultEvent, FaultInjector
from repro.obs import Tracer
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
        injector = FaultInjector(system)

        injector.fail_link("phb", "shb")
        injector.recover_link("phb", "shb")
        injector.crash_broker("phb")
        injector.restart_broker("phb")
        injector.crash_broker("phb")
        injector.restart_broker("phb")

        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="fail_link"
        ) == 1
        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="crash"
        ) == 2
        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="restart"
        ) == 2
        # One record per crash, not a second one under an injector alias.
        assert [e.kind for e in system.obs.fault_events] == [
            "fail_link", "recover_link", "crash", "restart", "crash", "restart",
        ]

    def test_structured_events_reach_obs_in_order(self):
        system = build_system()
        injector = FaultInjector(system)

        injector.at(0.5, lambda: injector.stall_broker("phb"))
        injector.at(1.0, lambda: injector.restart_broker("phb"))
        system.run_until(1.5)

        # The broker never died, so its host has no restart to report;
        # the stall-clearing restart_broker still reaches the hub once.
        events = system.obs.fault_events
        assert [e.kind for e in events] == ["stall_broker", "restart"]
        assert all(isinstance(e, FaultEvent) for e in events)
        assert events == injector.events
        for event in events:
            assert event.tick == tick_of_time(event.time)

    def test_verbs_the_host_does_not_act_on_are_still_reported_once(self):
        """crash_broker on a dead broker and restart_broker on a live one
        change no host state; every observer still sees the verb, once."""
        system = build_system()
        injector = FaultInjector(system)
        tracer = Tracer(system).install()

        injector.crash_broker("phb")
        injector.crash_broker("phb")
        injector.restart_broker("phb")
        injector.restart_broker("phb")

        kinds = ["crash", "crash", "restart", "restart"]
        assert [e.kind for e in injector.events] == kinds
        assert system.obs.fault_events == injector.events
        assert [e.detail["what"] for e in tracer.filter(kind="fault")] == [
            f"{kind} phb" for kind in kinds
        ]
        assert counter_value(
            system.obs, "repro_faults_injected_total", kind="crash"
        ) == 2

    def test_fault_counter_appears_in_prometheus_export(self):
        system = build_system()
        injector = FaultInjector(system)
        injector.stall_broker("phb")
        text = system.obs.prometheus()
        assert "repro_faults_injected_total" in text
        assert 'kind="stall_broker"' in text
