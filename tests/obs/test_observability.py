"""The Observability facade, system wiring, and the keyword-only call signatures."""

import warnings

import pytest

import repro
from repro.obs import Observability
from repro.obs.hub import MetricsHub
from repro.topology import two_broker_topology


def small_system(seed=3):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo.build(seed=seed)


class TestFacade:
    def test_counter_and_gauge(self):
        obs = Observability()
        obs.counter("c_total", broker="x").inc(4)
        obs.gauge("g").set(1.5)
        assert obs.instruments.total("c_total") == 4.0
        assert obs.instruments.get("g").value == 1.5

    def test_owns_a_hub_attached_to_its_lifecycle(self):
        obs = Observability()
        assert isinstance(obs.hub, MetricsHub)
        # The nack series and the fault log are listeners from the start.
        assert obs.lifecycle.listeners == [obs.hub, obs]

    def test_derived_gauges_from_accountants(self):
        class Acct:
            busy_time = 1.25

            def queue_delay(self):
                return 0.5

        obs = Observability()
        obs.register_accountant("b1", Acct())
        text = obs.prometheus()
        assert 'repro_broker_cpu_busy_seconds{broker="b1"} 1.25' in text
        assert 'repro_broker_cpu_queue_delay_seconds{broker="b1"} 0.5' in text


class TestSystemWiring:
    def test_system_exposes_obs(self):
        system = small_system()
        assert isinstance(system.obs, Observability)
        # system.metrics is the read-only alias of the hub.
        assert system.obs.hub is system.metrics
        # Every broker shares the system registry and registered its
        # accountant.
        for broker in system.brokers.values():
            assert broker.obs is system.obs
        assert set(system.obs.accountants) == set(system.brokers)

    def test_restarted_engine_keeps_counting(self):
        system = small_system()
        pub = system.publisher("P0", rate=50.0)
        pub.start(at=0.1)
        system.subscribe("a", "shb", ("P0",))
        system.run_until(1.0)
        counter = system.obs.instruments.get(
            "repro_broker_knowledge_sent_total", broker="phb"
        )
        before = counter.value
        assert before > 0
        system.brokers["phb"].crash()
        system.run_for(0.2)
        system.brokers["phb"].restart()
        system.run_until(3.0)
        # Same child object, monotone across the restart.
        assert system.obs.instruments.get(
            "repro_broker_knowledge_sent_total", broker="phb"
        ) is counter
        assert counter.value > before

    def test_run_until_and_run_for_return_final_time(self):
        system = small_system()
        assert system.run_until(1.5) == pytest.approx(1.5)
        assert system.run_for(0.5) == pytest.approx(2.0)

    def test_tracer_registers_with_obs(self):
        from repro.obs.trace import Tracer

        system = small_system()
        tracer = Tracer(system)
        assert tracer in system.obs.tracers


class TestImportPaths:
    def test_public_import_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.obs import MetricsHub as hub  # noqa: F401
            from repro.obs import Tracer as tracer  # noqa: F401

            assert repro.MetricsHub is MetricsHub


class TestKeywordOnly:
    def test_subscribe_stray_positional_raises(self):
        system = small_system()
        with pytest.raises(TypeError):
            system.subscribe("a", "shb", ("P0",), None, True)
        assert "a" not in system.subscriptions

    def test_subscribe_keyword_total_order(self):
        system = small_system()
        client = system.subscribe("a", "shb", ("P0",), total_order=True)
        assert system.subscriptions["a"].total_order is True
        assert client is system.subscribers["a"]

    def test_pubend_stray_positional_raises(self):
        topo = two_broker_topology()
        with pytest.raises(TypeError):
            topo.pubend("P0", "phb", 0.25)
        assert "P0" not in topo._pubends

    def test_pubend_keyword_preassign(self):
        topo = two_broker_topology()
        topo.pubend("P0", "phb", preassign_window=0.25)
        assert topo._pubends["P0"].preassign_window == 0.25
