"""The unified SystemFacade across both backends.

Pins the API-convergence contract: the simulator's ``System`` and the
real-time ``AioSystem`` expose the same public surface (subscribe /
publisher / host_pubend / obs / the nine fault verbs), accept the same
predicate forms, return elapsed time from ``run_for``, and take
``total_order`` by keyword only.
"""

import asyncio
import math
import os

import pytest

from repro.aio.runtime import AioSystem
from repro.baselines.best_effort import BestEffortBroker
from repro.client import DeliveryChecker
from repro.core.config import LivenessParams
from repro.facade import SystemFacade
from repro.matching.parser import parse
from repro.storage.log import FileLog, MemoryLog
from repro.topology import System, two_broker_topology

FAULT_VERBS = (
    "crash_broker", "restart_broker", "fail_link", "recover_link",
    "set_link_pathology", "clear_link_pathology",
    "stall_link", "stall_broker", "unstall_broker",
)

#: What the shell implements once for both backends.
SHARED = (
    "subscribe", "host_pubend", "publisher", "_report_fault",
    "_host_planned_pubends", "_default_log", "_clear_stall",
    "fail_link", "recover_link", "set_link_pathology", "clear_link_pathology",
    "stall_link", "stall_broker", "unstall_broker",
)

FAST = LivenessParams(gct=0.05, nrt_min=0.1, aet=1.0, dct=math.inf,
                      silence_interval=0.1, link_status_interval=0.1,
                      nrt_max=2.0)


def gd_topology():
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo


def sim_system():
    return gd_topology().build(seed=1, params=LivenessParams())


class TestProtocol:
    def test_both_backends_satisfy_the_facade(self):
        assert isinstance(sim_system(), SystemFacade)

        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            try:
                return isinstance(system, SystemFacade)
            finally:
                await system.shutdown()

        assert asyncio.run(scenario())

    def test_the_facade_declares_the_fault_verbs(self):
        for verb in FAULT_VERBS:
            assert callable(getattr(SystemFacade, verb))
            assert callable(getattr(sim_system(), verb))
            assert callable(getattr(AioSystem, verb))

    def test_a_baseline_system_satisfies_the_facade_and_its_verbs_report(self):
        # Baseline brokers are not BrokerHosts and report nothing
        # themselves: the verb on the system is what reaches the hub.
        system = gd_topology().build(seed=1, broker_factory=BestEffortBroker)
        assert isinstance(system, SystemFacade)
        system.crash_broker("phb")
        system.restart_broker("phb")
        assert [(e.kind, e.target) for e in system.obs.fault_events] == [
            ("crash", "phb"), ("restart", "phb"),
        ]


class TestOneShell:
    def test_every_shared_verb_is_defined_once_on_the_shell(self):
        for name in SHARED:
            assert name in vars(SystemFacade), name
            assert name not in vars(System), name
            assert name not in vars(AioSystem), name

    @pytest.mark.parametrize("backend", ["sim", "aio"])
    def test_a_late_pubend_gets_the_build_log(self, backend):
        # host_pubend without a log gives what every planned pubend got:
        # the build's commit latency, or the build's log factory.
        def check(system):
            planned = system.brokers["phb"].hosted_logs()["P0"]
            late = system.host_pubend("PX", "phb")
            return type(planned), planned.commit_latency, type(late), late.commit_latency

        def via_factory(pubend_id):
            return MemoryLog(commit_latency=0.25)

        results = []
        for kwargs in ({"log_commit_latency": 0.1}, {"log_factory": via_factory}):
            if backend == "sim":
                results.append(check(gd_topology().build(seed=1, **kwargs)))
                continue

            async def scenario():
                system = AioSystem(gd_topology(), params=FAST, **kwargs)
                try:
                    return check(system)
                finally:
                    await system.shutdown()

            results.append(asyncio.run(scenario()))
        assert results == [
            (MemoryLog, 0.1, MemoryLog, 0.1),
            (MemoryLog, 0.25, MemoryLog, 0.25),
        ]


class TestKeywordOnly:
    def test_aio_subscribe_stray_positional_raises(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            try:
                with pytest.raises(TypeError):
                    system.subscribe("a", "shb", ("P0",), None, True)
                client = system.subscribe("a", "shb", ("P0",), total_order=True)
                return system.subscriptions["a"].total_order, client.check_total_order
            finally:
                await system.shutdown()

        assert asyncio.run(scenario()) == (True, True)


class TestPredicateForms:
    def test_aio_accepts_string_ast_and_callable_uniformly(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            clients = {
                "s_str": system.subscribe("s_str", "shb", ("P0",), "g = 0"),
                "s_ast": system.subscribe("s_ast", "shb", ("P0",), parse("g = 0")),
                "s_call": system.subscribe(
                    "s_call", "shb", ("P0",), lambda e: e["g"] == 0
                ),
            }
            publisher = system.publisher(
                "P0", rate=200.0, make_attributes=lambda i: {"g": i % 2}
            )
            publisher.start()
            await system.run_for(0.4)
            await publisher.stop()
            await system.run_for(0.5)
            checker = DeliveryChecker([publisher])
            reports = {
                name: checker.check(client, system.subscriptions[name])
                for name, client in clients.items()
            }
            received = {
                name: {(p, t) for p, t, __, ___ in client.received}
                for name, client in clients.items()
            }
            await system.shutdown()
            return reports, received

        reports, received = asyncio.run(scenario())
        for name, report in reports.items():
            assert report.exactly_once, name
        assert received["s_str"] == received["s_ast"] == received["s_call"]
        assert received["s_str"]


class TestRunForAndHosting:
    def test_aio_run_for_returns_elapsed_time(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            try:
                return await system.run_for(0.05)
            finally:
                await system.shutdown()

        elapsed = asyncio.run(scenario())
        assert elapsed >= 0.05

    def test_sim_host_pubend_registers_and_returns_log(self):
        system = sim_system()
        log = system.host_pubend("PX", "phb")
        assert isinstance(log, MemoryLog)
        assert system.pubend_hosts["PX"] == "phb"

    def test_aio_host_pubend_publishes_into_returned_log(self):
        async def scenario():
            system = AioSystem(gd_topology(), params=FAST)
            await system.start()
            log = system.host_pubend("PX", "phb", slot=0, n_slots=1)
            tick = system.brokers["phb"].publish("PX", {"k": 1})
            await system.shutdown()
            return log, tick

        log, tick = asyncio.run(scenario())
        assert tick is not None
        # With no downstream routes the publication is immediately fully
        # acked and truncated, so assert on the append itself.
        assert log.append_count == 1

    def test_data_dir_gives_every_pubend_a_file_log(self, tmp_path):
        async def scenario():
            system = AioSystem(
                gd_topology(), params=FAST, data_dir=str(tmp_path)
            )
            log = system.brokers["phb"].hosted_logs()["P0"]
            await system.shutdown()
            return log

        log = asyncio.run(scenario())
        assert isinstance(log, FileLog)
        assert os.path.dirname(log.path) == str(tmp_path)
