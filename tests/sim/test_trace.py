"""Tracing a simulated run with the causal tracer.

These runs are the simulator scenarios the tracer is checked on: a
clean run, a lossy one that forces nacks and retransmissions, and a
batched one whose knowledge waits for the flush timer.
"""

from repro.core.config import LivenessParams
from repro.obs import CausalTracer
from repro.topology import two_broker_topology


def traced_run(drop=0.0, seed=3, params=None, until=3.0, traced=True):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    system = topo.build(seed=seed, params=params, log_commit_latency=0.01)
    if drop:
        system.network.link("phb", "shb").drop_probability = drop
    tracer = CausalTracer(system).install() if traced else None
    client = system.subscribe("a", "shb", ("P0",))
    pub = system.publisher("P0", rate=50.0)
    pub.start(at=0.1)
    system.run_until(1.0)
    pub.stop()
    system.run_until(until)
    return system, tracer, pub, client


def span_rows(tracer):
    return [
        (s.sid, s.parent, s.name, s.node, s.pubend, s.tick, s.t0, s.t1, s.attrs)
        for s in tracer.spans
    ]


class TestRecording:
    def test_nacks_traced_under_loss(self):
        __, tracer, __p, __c = traced_run(drop=0.2, seed=9)
        names = [s.name for s in tracer.spans]
        assert names.count("nack_send") > 0
        assert names.count("nack_handle") > 0
        retransmits = [
            s
            for s in tracer.spans
            if s.name == "transit" and s.attrs.get("kind") == "retransmit"
        ]
        assert retransmits
        assert all(s.node == "phb" and s.attrs["dst"] == "shb" for s in retransmits)

    def test_tracing_does_not_change_behaviour(self):
        def deliveries(traced):
            __, __t, __p, client = traced_run(
                drop=0.1, seed=5, until=4.0, traced=traced
            )
            return [(p, t) for (p, t, __, ___) in client.received]

        untraced = deliveries(False)
        assert untraced
        assert untraced == deliveries(True)

    def test_deterministic_traces(self):
        __, t1, __a, __c1 = traced_run(drop=0.1, seed=4)
        __, t2, __b, __c2 = traced_run(drop=0.1, seed=4)
        assert t1.spans
        assert span_rows(t1) == span_rows(t2)
        assert t1.deliveries == t2.deliveries


class TestFlushEvents:
    def test_batched_run_traces_knowledge_flushes(self):
        params = LivenessParams(gct=0.1, nrt_min=0.3, flush_delay=0.05)
        __, tracer, __p, __c = traced_run(seed=9, params=params, until=4.0)
        timers = [s for s in tracer.spans if s.name == "flush_timer"]
        assert timers
        sent = [s for s in timers if s.attrs.get("sent") is True]
        assert sent
        flush = sent[0]
        assert flush.pubend == "P0"
        assert flush.attrs.get("ticks", 0) > 0
