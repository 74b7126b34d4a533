"""Causal span-tree tracing (repro.obs.causal).

The tracer turns lifecycle hook events into one span tree per
publication identity ``(pubend, tick)``; these tests pin the causal
parenting rules (retransmissions under the nack that caused them, flush
sends under the batching timer), the pure-observation guarantee, and the
Chrome-trace export on both backends.
"""

import asyncio
import io
import json

import pytest

from repro.aio.runtime import AioSystem
from repro.aio.transport import LocalTransport
from repro.core.config import LivenessParams
from repro.obs.causal import CausalTracer
from repro.topology import two_broker_topology


def topology():
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo


def traced_run(drop=0.0, seed=3, flush_delay=0.0, until=3.0, tracer_on=True):
    params = LivenessParams(gct=0.1, nrt_min=0.3, flush_delay=flush_delay)
    system = topology().build(seed=seed, params=params, log_commit_latency=0.01)
    if drop:
        system.network.link("phb", "shb").drop_probability = drop
    tracer = CausalTracer(system).install() if tracer_on else None
    client = system.subscribe("a", "shb", ("P0",))
    pub = system.publisher("P0", rate=50.0)
    pub.start(at=0.1)
    system.run_until(1.0)
    pub.stop()
    system.run_until(until)
    return system, tracer, pub, client


def by_name(spans, name):
    return [s for s in spans if s.name == name]


class TestSpanTree:
    def test_delivery_chains_back_to_publish(self):
        __, tracer, pub, client = traced_run()
        assert client.received
        pubend, tick = "P0", client.received[0][1]
        spans = tracer.spans_for(pubend, tick)
        names = {s.name for s in spans}
        assert {"publish", "ingest", "transit", "deliver"} <= names
        deliver = by_name(spans, "deliver")[0]
        # Walk the causal parent chain from the delivery; it must reach
        # the publish span without leaving the recorded store.
        chain = []
        sid = deliver.sid
        while sid is not None:
            span = tracer.spans[sid]
            chain.append(span.name)
            sid = span.parent
        assert chain[-1] == "publish"
        assert "transit" in chain

    def test_publish_span_closed_by_commit(self):
        __, tracer, pub, __c = traced_run()
        publishes = by_name(tracer.spans, "publish")
        assert len(publishes) == len(pub.published)
        assert all(not s.open for s in publishes)
        # commit latency is 10 ms in this run
        assert all(abs(s.duration() - 0.01) < 1e-9 for s in publishes)

    def test_retransmission_is_child_of_nack_handle(self):
        __, tracer, __p, __c = traced_run(drop=0.2, seed=9, until=4.0)
        retransmits = [
            s
            for s in tracer.spans
            if s.name == "transit" and s.attrs.get("kind") == "retransmit"
        ]
        assert retransmits
        for span in retransmits:
            assert span.parent is not None
            assert tracer.spans[span.parent].name == "nack_handle"
        # ... and the nack_handle chains to the nack_send that carried the
        # curiosity, which chains to the subend's nack decision.
        handle = tracer.spans[retransmits[0].parent]
        assert handle.parent is not None
        send = tracer.spans[handle.parent]
        assert send.name == "nack_send"
        assert send.parent is not None
        assert tracer.spans[send.parent].name == "nack"

    def test_flush_send_is_child_of_flush_timer(self):
        __, tracer, __p, __c = traced_run(flush_delay=0.05, until=4.0)
        flush_sends = [
            s
            for s in tracer.spans
            if s.name == "transit" and s.attrs.get("kind") == "flush"
        ]
        assert flush_sends
        for span in flush_sends:
            assert span.parent is not None
            parent = tracer.spans[span.parent]
            assert parent.name == "flush_timer"
            assert parent.attrs.get("sent") is True
            # The timer span covers defer -> flush.
            assert parent.duration() is not None and parent.duration() > 0

    def test_cancelled_flush_timer_closes_its_span_unsent(self):
        # An empty coalesced flush (its ticks finalized meanwhile) reports
        # sent=False through the hub; the timer span closes and records it.
        system, tracer, __p, __c = traced_run(flush_delay=0.05, until=4.0)
        system.obs.lifecycle.flush_deferred(
            system.now, "phb", "P0", "SHB", (), True, 0.05
        )
        timer = tracer.spans[-1]
        assert timer.name == "flush_timer" and timer.open
        system.obs.lifecycle.knowledge_flushed(
            system.now + 0.05, "phb", "P0", "SHB", (), False
        )
        assert timer.attrs["sent"] is False
        assert timer.duration() == pytest.approx(0.05)

    def test_lost_message_leaves_open_transit(self):
        __, tracer, __p, __c = traced_run(drop=0.3, seed=5, until=4.0)
        open_transits = [
            s for s in tracer.spans if s.name == "transit" and s.open
        ]
        assert open_transits  # dropped envelopes never close their hop span
        assert tracer.open_span_count() >= len(open_transits)


class TestPureObservation:
    def test_install_is_idempotent(self):
        system, tracer, __p, __c = traced_run()
        tracer.install()
        assert system.obs.lifecycle.listeners.count(tracer) == 1
        before = len(tracer)
        system.fail_link("phb", "shb")
        assert len(tracer) == before + 1

    def test_tracing_does_not_change_deliveries(self):
        def deliveries(tracer_on):
            __, __t, __p, client = traced_run(
                drop=0.15, seed=11, until=4.0, tracer_on=tracer_on
            )
            return [(p, t) for (p, t, __, ___) in client.received]

        assert deliveries(False) == deliveries(True)

    def test_timeline_is_deterministic(self):
        __, t1, __p, c1 = traced_run(drop=0.1, seed=4)
        __, t2, __p2, __c2 = traced_run(drop=0.1, seed=4)
        assert len(t1.spans) == len(t2.spans)
        tick = c1.received[0][1]
        assert t1.render_timeline("P0", tick) == t2.render_timeline("P0", tick)


class TestChromeExport:
    def test_export_is_loadable_and_complete(self):
        __, tracer, __p, __c = traced_run(drop=0.1, seed=4)
        out = io.StringIO()
        count = tracer.export_chrome(out)
        trace = json.loads(out.getvalue())
        events = trace["traceEvents"]
        assert count == len(events)
        phases = {e["ph"] for e in events}
        assert "X" in phases  # spans
        assert "M" in phases  # process/thread names
        assert "s" in phases and "f" in phases  # causal flow arrows
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(tracer.spans)
        # every span event sits on a named process lane
        pids = {
            e["pid"] for e in events if e.get("name") == "process_name"
        }
        assert all(e["pid"] in pids for e in spans)
        assert all(e["dur"] >= 1.0 for e in spans)


class TestAsyncioBackend:
    def test_export_and_timeline_after_shutdown(self):
        """The tracer reads no backend clock: it exports from an
        ``AioSystem`` whose loop has stopped."""

        async def run():
            system = AioSystem(
                topology(),
                params=LivenessParams(gct=0.05, nrt_min=0.1),
                transport=LocalTransport(latency=0.001),
            )
            await system.start()
            tracer = CausalTracer(system).install()
            client = system.subscribe("a", "shb", ("P0",))
            system.publisher("P0", rate=100.0, max_messages=10).start()
            try:
                for __ in range(50):
                    await system.run_for(0.05)
                    if client.count() == 10:
                        break
            finally:
                await system.shutdown()
            return tracer, client

        tracer, client = asyncio.run(run())
        assert client.count() == 10
        out = io.StringIO()
        tracer.export_chrome(out)
        spans = [e for e in json.loads(out.getvalue())["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == len(tracer.spans) >= 1
        tick = client.received[0][1]
        timeline = tracer.render_timeline("P0", tick)
        assert f"publish @phb (P0,{tick})" in timeline
        (transit,) = [line for line in timeline.splitlines() if "kind=first" in line]
        assert "dst=shb" in transit and "open" not in transit
        assert ("a", "P0", tick) in [d[:3] for d in tracer.deliveries]
