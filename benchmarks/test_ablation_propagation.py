"""Ablation — subscription propagation (content-based routing).

Beyond the paper's figures: Gryphon's raison d'être is that intermediate
brokers filter, so traffic for content nobody downstream wants never
crosses the wide-area links.  The paper's fault experiments configure
pass-through filters; this ablation measures what dynamic subscription
summaries buy on a selective workload.

Setup: PHB -> IB -> two SHBs; one SHB subscribes to 10% of the content,
the other to a different 10%.  With propagation on, each SHB link carries
only its tenth (and the PHB->IB link two tenths); with it off, every
message traverses every link.  Delivery is exactly-once either way.
"""

import pytest

from repro.client import DeliveryChecker
from repro.core.config import LivenessParams
from repro.obs.causal import CausalTracer
from repro.topology import Topology

from _bench_tables import print_table

N_GROUPS = 10
RATE = 100.0


def build(propagation: bool):
    topo = Topology()
    topo.cell("PHB", "phb").cell("IB", "ib").cell("SHB1", "s1").cell("SHB2", "s2")
    topo.link("phb", "ib").link("ib", "s1").link("ib", "s2")
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "IB")
    topo.route("P0", "IB", "SHB1")
    topo.route("P0", "IB", "SHB2")
    params = LivenessParams(
        gct=0.1,
        nrt_min=0.3,
        subscription_propagation=propagation,
        link_status_interval=0.2,
    )
    return topo.build(seed=23, params=params, log_commit_latency=0.01)


def run(propagation: bool):
    system = build(propagation)
    tracer = CausalTracer(system).install()
    sub1 = system.subscribe("one", "s1", ("P0",), "g = 1")
    sub2 = system.subscribe("two", "s2", ("P0",), "g = 2")
    system.run_until(0.5)
    publisher = system.publisher(
        "P0", rate=RATE, make_attributes=lambda i: {"g": i % N_GROUPS}
    )
    publisher.start(at=0.6)
    system.run_until(5.0)
    publisher.stop()
    system.run_until(8.0)

    def shipped(node, to):
        """D ticks in the knowledge sends (first-time and retransmissions)
        from ``node`` to ``to``."""
        return sum(
            span.attrs["d"]
            for span in tracer.spans
            if span.name == "transit" and span.node == node and span.attrs["dst"] == to
        )

    checker = DeliveryChecker([publisher])
    ok = (
        checker.check(sub1, system.subscriptions["one"]).exactly_once
        and checker.check(sub2, system.subscriptions["two"]).exactly_once
    )
    return {
        "propagation": propagation,
        "exactly_once": ok,
        "published": len(publisher.published),
        "phb_to_ib": shipped("phb", "ib"),
        "ib_to_s1": shipped("ib", "s1"),
        "ib_to_s2": shipped("ib", "s2"),
    }


def test_ablation_subscription_propagation(benchmark):
    on, off = benchmark.pedantic(
        lambda: (run(True), run(False)), rounds=1, iterations=1
    )
    print_table(
        "Ablation — subscription propagation "
        f"(two 1-in-{N_GROUPS} subscribers on separate SHBs)",
        ["propagation", "exactly once", "published",
         "PHB->IB data", "IB->s1 data", "IB->s2 data"],
        [
            [str(r["propagation"]), r["exactly_once"], r["published"],
             r["phb_to_ib"], r["ib_to_s1"], r["ib_to_s2"]]
            for r in (on, off)
        ],
    )
    assert on["exactly_once"] and off["exactly_once"]
    published = on["published"]
    # Without propagation every link carries everything.
    assert off["phb_to_ib"] >= published
    assert off["ib_to_s1"] >= published
    # With it, each link carries only the content subscribed below it
    # (plus a small slop for messages published before summaries settle).
    assert on["ib_to_s1"] <= 0.15 * published + 5
    assert on["ib_to_s2"] <= 0.15 * published + 5
    assert on["phb_to_ib"] <= 0.25 * published + 5
