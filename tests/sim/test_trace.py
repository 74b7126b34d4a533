"""Tests for the structured event tracer."""

import io
import json

from repro.obs import Tracer
from repro.topology import two_broker_topology


def traced_run(drop=0.0, seed=3, capture_link_status=False):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    system = topo.build(seed=seed, log_commit_latency=0.01)
    if drop:
        system.network.link("phb", "shb").drop_probability = drop
    tracer = Tracer(system, capture_link_status=capture_link_status).install()
    system.subscribe("a", "shb", ("P0",))
    pub = system.publisher("P0", rate=50.0)
    pub.start(at=0.1)
    system.run_until(1.0)
    pub.stop()
    system.run_until(3.0)
    return system, tracer, pub


class TestRecording:
    def test_records_publishes_sends_and_deliveries(self):
        __, tracer, pub = traced_run()
        counts = tracer.counts()
        assert counts["publish"] == len(pub.published)
        assert counts["send:knowledge"] >= len(pub.published)
        assert counts["deliver"] == len(pub.published)
        assert counts.get("send:ack", 0) > 0

    def test_link_status_suppressed_by_default(self):
        __, tracer, __p = traced_run()
        assert "send:link_status" not in tracer.counts()

    def test_nacks_traced_under_loss(self):
        __, tracer, __p = traced_run(drop=0.2, seed=9)
        counts = tracer.counts()
        assert counts.get("send:nack", 0) > 0
        assert counts.get("send:retransmit", 0) > 0

    def test_tracing_does_not_change_behaviour(self):
        def deliveries(traced):
            topo = two_broker_topology()
            topo.pubend("P0", "phb")
            topo.route("P0", "PHB", "SHB")
            system = topo.build(seed=5, log_commit_latency=0.01)
            system.network.link("phb", "shb").drop_probability = 0.1
            if traced:
                Tracer(system).install()
            client = system.subscribe("a", "shb", ("P0",))
            pub = system.publisher("P0", rate=50.0)
            pub.start(at=0.1)
            system.run_until(1.0)
            pub.stop()
            system.run_until(4.0)
            return [(p, t) for (p, t, __, ___) in client.received]

        assert deliveries(False) == deliveries(True)

    def test_deterministic_traces(self):
        __, t1, __a = traced_run(drop=0.1, seed=4)
        __, t2, __b = traced_run(drop=0.1, seed=4)
        assert t1.render() == t2.render()

    def test_install_idempotent(self):
        system, tracer, pub = traced_run()
        count = len(tracer)
        tracer.install()
        assert len(tracer) == count


class TestQueries:
    def test_filter_by_kind_node_msg_and_window(self):
        __, tracer, __p = traced_run()
        sends = tracer.filter(kind="send", node="phb", msg="knowledge")
        assert sends and all(e.node == "phb" for e in sends)
        early = tracer.filter(t1=0.15)
        late = tracer.filter(t0=0.15)
        assert len(early) + len(late) == len(tracer)

    def test_render_lines(self):
        __, tracer, __p = traced_run()
        text = tracer.render(tracer.filter(kind="deliver")[:3])
        assert text.count("\n") == 2
        assert "deliver" in text

    def test_jsonl_export(self):
        __, tracer, __p = traced_run()
        out = io.StringIO()
        rows = tracer.write_jsonl(out)
        lines = out.getvalue().strip().splitlines()
        assert rows == len(lines) == len(tracer)
        parsed = json.loads(lines[0])
        assert {"t", "kind", "node"} <= set(parsed)

    def test_fault_arrives_through_the_hub(self):
        system, tracer, __p = traced_run()
        system.fail_link("phb", "shb")
        (fault,) = tracer.filter(kind="fault")
        assert fault.detail["what"] == "fail_link phb-shb"
        assert fault.t == system.scheduler.now


class TestSequenceNumbers:
    def test_seq_is_monotonic_and_orders_simultaneous_events(self):
        # Both brokers' link-status timers fire at the same instant.
        __, tracer, __p = traced_run(drop=0.1, seed=4, capture_link_status=True)
        events = tracer.filter()
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # (t, seq) is a total order even when timestamps collide.
        keys = [e.sort_key for e in sorted(events, key=lambda e: e.sort_key)]
        assert keys == sorted(keys)
        assert any(
            a.t == b.t and a.seq < b.seq for a, b in zip(events, events[1:])
        )


class TestFlushEvents:
    def flushed_run(self, drop=0.0, seed=9):
        from repro.core.config import LivenessParams

        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        params = LivenessParams(gct=0.1, nrt_min=0.3, flush_delay=0.05)
        system = topo.build(seed=seed, params=params, log_commit_latency=0.01)
        if drop:
            system.network.link("phb", "shb").drop_probability = drop
        tracer = Tracer(system).install()
        system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=50.0)
        pub.start(at=0.1)
        system.run_until(1.0)
        pub.stop()
        system.run_until(4.0)
        return system, tracer

    def test_batched_run_traces_knowledge_flushes(self):
        __, tracer = self.flushed_run()
        counts = tracer.counts()
        assert counts.get("knowledge_flush", 0) > 0
        flush = tracer.filter(kind="knowledge_flush")[0]
        assert flush.detail.get("pubend") == "P0"
        assert flush.detail.get("ticks", 0) > 0

    def test_cancelled_timer_maps_to_its_own_kind(self):
        # An empty coalesced flush (ticks finalized meanwhile) reports
        # sent=False through the hub; the flat tracer gives it a
        # distinct event kind.
        system, tracer = self.flushed_run()
        before = len(tracer)
        system.obs.lifecycle.knowledge_flushed(
            system.scheduler.now, "phb", "P0", "SHB", (), False
        )
        assert len(tracer) == before + 1
        cancelled = tracer.filter(kind="flush_timer_cancelled")
        assert cancelled and cancelled[-1].node == "phb"
