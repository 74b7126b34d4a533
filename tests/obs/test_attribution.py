"""Latency attribution (repro.obs.attribution).

The acceptance bar for the causal tracing layer: on a seeded two-broker
run with a Figure-6-style link fault, **every** delivered message's
attribution components must sum (within float tolerance) to its
end-to-end latency — the decomposition never invents or loses time.
"""

from repro.core.config import LivenessParams
from repro.obs.attribution import COMPONENTS, build_report
from repro.obs.causal import CausalTracer
from repro.topology import two_broker_topology


def attributed_run(
    seed=7, drop=0.0, flush_delay=0.0, link_fault=None, until=6.0
):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    params = LivenessParams(gct=0.1, nrt_min=0.3, flush_delay=flush_delay)
    system = topo.build(seed=seed, params=params, log_commit_latency=0.01)
    if drop:
        system.network.link("phb", "shb").drop_probability = drop
    if link_fault is not None:
        down, up = link_fault
        system.scheduler.call_at(down, lambda: system.fail_link("phb", "shb"))
        system.scheduler.call_at(up, lambda: system.recover_link("phb", "shb"))
    tracer = CausalTracer(system).install()
    client = system.subscribe("a", "shb", ("P0",))
    pub = system.publisher("P0", rate=50.0)
    pub.start(at=0.1)
    system.run_until(2.0)
    pub.stop()
    system.run_until(until)
    return build_report(tracer), client


class TestComponentsSumToLatency:
    def test_every_delivery_under_link_fault(self):
        """Acceptance: seeded two_broker + link outage mid-run — each
        delivered message's components telescope exactly to its
        end-to-end (publish -> client observation) latency."""
        report, client = attributed_run(
            seed=7, link_fault=(0.6, 1.4), until=8.0
        )
        assert client.received
        assert len(report.breakdowns) == len(client.received)
        for b in report.breakdowns:
            assert b.check_sum(1e-9), (
                f"({b.pubend},{b.tick}) components {b.components} "
                f"do not sum to total {b.total}"
            )
            assert b.total >= 0
            assert set(b.components) == set(COMPONENTS)
            assert all(v >= -1e-9 for v in b.components.values())
        # The outage forces recovery: some deliveries waited on
        # retransmission or on publisher-order (horizon) hold-back.
        recovered = sum(
            b.components["retransmit_wait"] + b.components["horizon_wait"]
            for b in report.breakdowns
        )
        assert recovered > 0

    def test_every_delivery_under_random_drops(self):
        report, client = attributed_run(seed=11, drop=0.15, until=8.0)
        assert client.received
        assert all(b.check_sum(1e-9) for b in report.breakdowns)
        assert sum(
            b.components["retransmit_wait"] for b in report.breakdowns
        ) > 0

    def test_flush_wait_appears_under_batching(self):
        report, __ = attributed_run(seed=7, flush_delay=0.05, until=8.0)
        assert report.breakdowns
        assert all(b.check_sum(1e-9) for b in report.breakdowns)
        assert sum(
            b.components["flush_wait"] for b in report.breakdowns
        ) > 0

    def test_commit_latency_attributed_exactly(self):
        report, __ = attributed_run(seed=3)
        # log_commit_latency is 10 ms; every delivery paid exactly that.
        assert report.breakdowns
        for b in report.breakdowns:
            assert abs(b.components["commit"] - 0.01) < 1e-9


class TestReport:
    def test_routes_and_format(self):
        report, client = attributed_run(seed=7, drop=0.1, until=8.0)
        assert report.routes
        route = report.routes[0]
        assert route.pubend == "P0" and route.subscriber == "a"
        assert route.count == len(client.received)
        assert (
            route.p50["total"] <= route.p95["total"] <= route.peak["total"]
        )
        text = report.format(top=3)
        for component in ("commit", "transit", "retransmit_wait"):
            assert component in text
        assert "P0" in text and "a" in text
