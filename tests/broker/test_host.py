"""Host-level behaviour, asserted identically on both backends.

``SimBroker`` and ``AioBroker`` are the same :class:`BrokerHost` on two
substrates, so everything a harness can observe about pubend hosting and
the crash/recover cycle through :class:`~repro.facade.SystemFacade` must
agree: assigned ticks survive a PHB crash, the engine is gone and
``publish`` refuses while down, subscriptions at a crashed SHB are not
restored, and each cycle emits exactly one ``crash`` and one ``restart``
lifecycle fault event.  Also pins the publisher contract both backends
share (``rate`` validation, ``body_bytes``, a failed log append counts as
a failed attempt).
"""

import asyncio
import inspect
import math

import pytest

from repro.aio.runtime import AioSystem
from repro.broker import BrokerHost
from repro.core.config import LivenessParams
from repro.facade import SystemFacade
from repro.obs.lifecycle import LifecycleRecorder
from repro.storage.log import FileLog, MemoryLog
from repro.topology import two_broker_topology

FAST = LivenessParams(gct=0.05, nrt_min=0.1, aet=1.0, dct=math.inf,
                      silence_interval=0.1, link_status_interval=0.1,
                      nrt_max=2.0)


def gd_topology():
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo


class Deployment:
    """One two-broker system on either backend.  Killing and restarting a
    broker is the same :class:`SystemFacade` verb on both; only whether
    its result needs awaiting differs."""

    def __init__(self, backend, data_dir=None):
        self.backend = backend
        if backend == "sim":
            log_factory = None
            if data_dir is not None:
                log_factory = lambda p: FileLog(str(data_dir / f"{p}.log"))
            self.system = gd_topology().build(
                seed=1, params=FAST, log_factory=log_factory
            )
        else:
            self.system = AioSystem(
                gd_topology(),
                params=FAST,
                data_dir=str(data_dir) if data_dir is not None else None,
            )
        assert isinstance(self.system, SystemFacade)
        self.recorder = LifecycleRecorder()
        self.system.obs.lifecycle.attach(self.recorder)

    async def start(self):
        if self.backend == "sim":
            self.system.start()
        else:
            await self.system.start()

    async def kill(self, broker_id):
        result = self.system.crash_broker(broker_id)
        if inspect.isawaitable(result):
            await result

    async def restart(self, broker_id):
        result = self.system.restart_broker(broker_id)
        if inspect.isawaitable(result):
            await result

    async def close(self):
        if self.backend == "aio":
            await self.system.shutdown()


def run(backend, scenario, data_dir=None):
    async def main():
        deployment = Deployment(backend, data_dir)
        await deployment.start()
        try:
            return await scenario(deployment)
        finally:
            await deployment.close()

    return asyncio.run(main())


@pytest.fixture(params=["sim", "aio"])
def backend(request):
    return request.param


@pytest.fixture(params=["memory", "file"])
def data_dir(request, tmp_path):
    return tmp_path if request.param == "file" else None


class TestCrashRecoverCycle:
    def test_phb_cycle_preserves_ticks_and_refuses_while_down(self, backend, data_dir):
        async def scenario(d):
            system = d.system
            phb = system.brokers["phb"]
            assert isinstance(phb, BrokerHost)
            extra_log = system.host_pubend("PX", "phb")
            assert phb.hosted_logs()["PX"] is extra_log
            publisher = system.publisher("P0", rate=10.0)
            assigned = [publisher.publish_once() for __ in range(5)]
            assert phb.publish("PX", {"k": 1}) is not None
            old_log = phb.hosted_logs()["P0"]

            await d.kill("phb")
            down = {
                "alive": phb.alive,
                "engine": phb.engine,
                "logs": phb.hosted_logs(),
                "tick": phb.publish("P0", {"k": 2}),
                "via_publisher": publisher.publish_once(),
            }

            await d.restart("phb")
            new_log = phb.hosted_logs()["P0"]
            recovered = [entry.tick for entry in new_log.entries("P0")]
            horizon = phb.engine.pubends["P0"].horizon
            after = publisher.publish_once()
            return {
                "assigned": assigned,
                "down": down,
                "hosted": sorted(phb.engine.pubends),
                "same_log_object": new_log is old_log,
                "recovered": recovered,
                "horizon": horizon,
                "after": after,
                "failed_attempts": publisher.failed_attempts,
                "restarts": phb.restarts,
                "faults": list(d.recorder.faults),
            }

        out = run(backend, scenario, data_dir)
        assigned = out["assigned"]
        assert None not in assigned and assigned == sorted(set(assigned))
        assert out["down"] == {
            "alive": False,
            "engine": None,
            "logs": {},
            "tick": None,
            "via_publisher": None,
        }
        assert out["hosted"] == ["P0", "PX"]
        # A MemoryLog is the disk that outlives the process (same object);
        # a FileLog handle dies with it and the file is reopened.
        assert out["same_log_object"] is (data_dir is None)
        assert out["recovered"] == assigned
        assert out["horizon"] == assigned[-1] + 1
        assert out["after"] > assigned[-1]
        assert out["failed_attempts"] == 1
        assert out["restarts"] == 1
        assert out["faults"] == [("crash", "phb"), ("restart", "phb")]

    def test_subscriptions_at_a_crashed_shb_are_not_restored(self, backend):
        async def scenario(d):
            system = d.system
            shb = system.brokers["shb"]
            system.subscribe("a", "shb", ("P0",))
            before = shb.engine.subend is not None
            await d.kill("shb")
            await d.restart("shb")
            return before, shb.engine.subend, "a" in system.subscriptions, d.recorder.faults

        before, subend, still_recorded, faults = run(backend, scenario)
        assert before
        assert subend is None
        assert still_recorded  # the system's record survives; the SHB's state does not
        assert faults == [("crash", "shb"), ("restart", "shb")]

    def test_crash_and_restart_are_idempotent(self, backend):
        async def scenario(d):
            phb = d.system.brokers["phb"]
            phb.restart()  # already up: no-op
            await d.kill("phb")
            phb.crash()  # already down: no-op
            await d.restart("phb")
            return phb.restarts, d.recorder.faults

        restarts, faults = run(backend, scenario)
        assert restarts == 1
        assert faults == [("crash", "phb"), ("restart", "phb")]


class TestPublisherContract:
    def test_non_positive_rate_rejected(self, backend):
        async def scenario(d):
            for rate in (0, -1.0):
                with pytest.raises(ValueError):
                    d.system.publisher("P0", rate=rate)
            return d.system.publishers

        assert run(backend, scenario) == []

    def test_body_bytes_pads_every_event(self, backend):
        async def scenario(d):
            publisher = d.system.publisher("P0", rate=10.0, body_bytes=64)
            publisher.publish_once()
            return publisher.published[0][2]

        event = run(backend, scenario)
        assert event.body == "x" * 64

    def test_failed_log_append_is_a_failed_attempt(self, backend, tmp_path):
        async def scenario(d):
            phb = d.system.brokers["phb"]
            publisher = d.system.publisher("P0", rate=10.0)
            first = publisher.publish_once()
            phb.hosted_logs()["P0"].inject_fault("enospc")
            if d.backend == "sim":
                # Through the pacing timer: the error must not escape
                # the scheduler.
                publisher.max_messages = 2
                publisher.start()
                d.system.run_for(0.5)
                refused = None
            else:
                refused = publisher.publish_once()
            retried = publisher.publish_once()
            return first, refused, retried, publisher.failed_attempts, publisher.seq

        first, refused, retried, failed, seq = run(backend, scenario, tmp_path)
        assert first is not None and refused is None
        assert retried is not None and retried > first  # the log rolled back
        assert failed == 1
        assert seq == 3

    def test_memory_log_factory_hands_back_the_same_object(self):
        log = MemoryLog()
        assert log.factory()() is log
