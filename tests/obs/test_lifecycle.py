"""One event stream: the lifecycle hub and its listeners, on both backends.

Every observer — the nack series of ``system.metrics``, the
:class:`~repro.obs.causal.CausalTracer`, ``system.obs``'s fault log and counter,
the conformance :class:`~repro.obs.lifecycle.LifecycleRecorder` — is a
:class:`~repro.obs.lifecycle.LifecycleListener` on ``system.obs.lifecycle``
and takes its time from the hook, so one canned run (20% loss, a link
outage, a loss burst, an intermediate-broker restart) must populate all
of them on the simulator *and* on the asyncio runtime, through
:class:`~repro.facade.SystemFacade` only — the fault script is one list
of timed facade verbs, applied by each clock's schedule executor.
"""

import asyncio
import collections
import functools
import inspect
import math

import pytest

from repro.aio.chaos import chain_topology
from repro.aio.runtime import AioSystem, run_schedule
from repro.aio.transport import LocalTransport
from repro.check.runner import schedule_steps
from repro.core.config import LivenessParams
from repro.facade import SystemFacade
from repro.obs.causal import CausalTracer
from repro.obs.lifecycle import LifecycleHub, LifecycleListener, LifecycleRecorder

FAST = LivenessParams(gct=0.05, nrt_min=0.1, aet=1.0, dct=math.inf,
                      silence_interval=0.1, link_status_interval=0.1,
                      nrt_max=2.0)

#: Every public method of the listener base class is a hook.
HOOKS = sorted(
    name
    for name, __ in inspect.getmembers(LifecycleListener, inspect.isfunction)
    if not name.startswith("_")
)


def recording_listener():
    """A listener overriding every hook, and the counter it fills."""
    fired = collections.Counter()

    def make(name):
        def hook(self, *args, **kwargs):
            fired[name] += 1

        return hook

    cls = type("Everything", (LifecycleListener,), {n: make(n) for n in HOOKS})
    return cls(), fired


class TestHubDispatch:
    @pytest.mark.parametrize("n_listeners", [1, 2])
    def test_every_declared_hook_is_reachable_through_the_hub(self, n_listeners):
        hub = LifecycleHub()
        counters = []
        for __ in range(n_listeners):
            listener, fired = recording_listener()
            hub.attach(listener)
            counters.append(fired)
        for name in HOOKS:
            arity = len(inspect.signature(getattr(LifecycleListener, name)).parameters)
            getattr(hub, name)(*[None] * (arity - 1))
        for fired in counters:
            assert fired == {name: 1 for name in HOOKS}

    def test_detach_falls_back_to_the_noop(self):
        hub = LifecycleHub()
        listener, fired = recording_listener()
        hub.attach(listener)
        hub.detach(listener)
        hub.fault(0.0, "crash", "b1")
        assert not fired and not hub.listeners


# ---------------------------------------------------------------------------
# One canned run per backend
# ---------------------------------------------------------------------------


#: The fault script of the canned run: timed SystemFacade verbs.
SCRIPT = [
    (0.25, "fail_link", ("b1", "b2"), {}),
    (0.40, "recover_link", ("b1", "b2"), {}),
    (0.45, "set_link_pathology", ("b0", "b1"), {"drop_probability": 0.5}),
    (0.50, "clear_link_pathology", ("b0", "b1"), {}),
    (0.55, "crash_broker", ("b1",), {}),
    (0.65, "restart_broker", ("b1",), {}),
]


async def canned_run(backend):
    """b0 — b1 — b2 with 20% loss; P0 publishes 80 messages while SCRIPT
    takes the b1–b2 link down and up, bursts loss on b0–b1 and kills and
    restarts b1; P1 stays idle (silence).  Returns what the observers
    saw."""
    if backend == "sim":
        system = chain_topology().build(seed=5, params=FAST, log_commit_latency=0.0)
        for a, b in (("b0", "b1"), ("b1", "b2")):
            system.network.link(a, b).drop_probability = 0.2
        system.start()
    else:
        system = AioSystem(
            chain_topology(),
            params=FAST,
            transport=LocalTransport(latency=0.001, drop_probability=0.2, seed=5),
        )
        await system.start()
    assert isinstance(system, SystemFacade)

    async def run_for(seconds):
        result = system.run_for(seconds)
        if inspect.isawaitable(result):
            await result

    tracer = CausalTracer(system).install()
    recorder = LifecycleRecorder()
    everything, fired = recording_listener()
    system.obs.lifecycle.attach(recorder)
    system.obs.lifecycle.attach(everything)
    client = system.subscribe("a", "b2", ("P0", "P1"))
    publisher = system.publisher("P0", rate=100.0, max_messages=80)
    if backend == "sim":
        publisher.start(at=system.now)
    else:
        publisher.start()
    try:
        if backend == "sim":
            schedule_steps(system.scheduler, system, SCRIPT)
            await run_for(SCRIPT[-1][0])
        else:
            await run_schedule(system, SCRIPT, asyncio.get_running_loop().time())
        for __ in range(100):  # settle: loss and outages are all repaired
            await run_for(0.1)
            if publisher.done and client.count() == len(publisher.published):
                break
        await run_for(0.3)  # let the last acks truncate the log
        instruments = system.obs.instruments
        return {
            "published": len(publisher.published),
            "delivered": client.count(),
            "nacks": system.metrics.nacks,
            "nack_range_sum": {
                node: instruments.get("repro_broker_nack_range_ticks", broker=node).sum
                for node in system.brokers
            },
            "nacks_sent_total": instruments.total("repro_broker_nacks_sent_total"),
            "acks_sent_total": instruments.total("repro_broker_acks_sent_total"),
            "spans": list(tracer.spans),
            "deliveries": list(tracer.deliveries),
            "fault_events": [(e.kind, e.target) for e in system.obs.fault_events],
            "fault_counter": {
                kind: instruments.get("repro_faults_injected_total", kind=kind).value
                for kind, __ in FAULTS
            },
            "recorder_faults": list(recorder.faults),
            "fired": fired,
        }
    finally:
        if backend == "aio":
            await system.shutdown()


@functools.lru_cache(maxsize=None)
def observed_on(backend):
    out = asyncio.run(canned_run(backend))
    out["backend"] = backend
    assert out["published"] == 80 and out["delivered"] == 80  # exactly once
    return out


@pytest.fixture(params=["sim", "aio"])
def observed(request):
    return observed_on(request.param)


#: What SCRIPT must look like on the hub, on either backend.
FAULTS = [
    ("fail_link", "b1-b2"),
    ("recover_link", "b1-b2"),
    ("set_link_pathology", "b0-b1"),
    ("clear_link_pathology", "b0-b1"),
    ("crash", "b1"),
    ("restart", "b1"),
]

#: Hooks a backend legitimately never fires in the canned run.
ONE_SIDED = {
    # Flush batching is off unless LivenessParams.flush_delay > 0.
    "sim": {"flush_deferred", "knowledge_flushed"},
    # The asyncio host hands deliveries straight to the client: there is
    # no modelled socket write between the subend and the subscriber.
    "aio": {"flush_deferred", "knowledge_flushed", "client_write"},
}


class TestListenersOnBothBackends:
    def test_nack_series_matches_the_nack_range_instrument(self, observed):
        nacks = observed["nacks"]
        assert nacks.count("b2") > 0  # the SHB saw gaps
        for node, instrument_sum in observed["nack_range_sum"].items():
            assert nacks.total_range(node) == instrument_sum
        assert sum(nacks.count(n) for n in nacks.nodes()) == observed["nacks_sent_total"]

    def test_causal_tracer_records_the_whole_conversation(self, observed):
        spans = observed["spans"]
        names = collections.Counter(span.name for span in spans)
        assert names["publish"] == observed["published"]
        assert len(observed["deliveries"]) == observed["published"]
        assert any(
            span.name == "transit" and span.attrs["kind"] == "retransmit"
            for span in spans
        )
        assert names["nack_send"] > 0
        assert names["fault"] == len(FAULTS)
        assert observed["acks_sent_total"] > 0
        # Stamped from the hooks' own clock, in recording order.
        starts = [span.t0 for span in spans]
        assert starts == sorted(starts)

    def test_faults_reach_obs_under_one_kind_vocabulary(self, observed):
        assert observed["fault_events"] == FAULTS
        assert observed["fault_counter"] == {kind: 1 for kind, __ in FAULTS}
        assert observed["recorder_faults"] == FAULTS

    def test_both_backends_report_the_same_fault_sequence(self):
        assert observed_on("sim")["fault_events"] == observed_on("aio")["fault_events"]

    def test_every_hook_fires_except_the_one_sided_ones(self, observed):
        fired = {name for name, n in observed["fired"].items() if n > 0}
        assert fired == set(HOOKS) - ONE_SIDED[observed["backend"]]


class TestFlushHooksNeedFlushDelay:
    def test_batched_run_fires_the_flush_hooks(self):
        params = FAST.with_(flush_delay=0.02)
        system = chain_topology().build(seed=5, params=params, log_commit_latency=0.0)
        listener, fired = recording_listener()
        system.obs.lifecycle.attach(listener)
        system.subscribe("a", "b2", ("P0",))
        system.publisher("P0", rate=100.0, max_messages=20).start(at=0.0)
        system.run_for(1.0)
        assert fired["flush_deferred"] > 0 and fired["knowledge_flushed"] > 0
