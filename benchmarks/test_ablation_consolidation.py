"""Ablation — nack consolidation on/off ("no nack explosions").

The paper's contribution list includes "localized effects of failures
without nack explosions", achieved by the consolidation rule: a broker
forwards a nack upstream only when it marks at least one istream tick
curious that was not already curious.

This ablation crashes b1 (so s1 and s2 nack the *same* lost ranges
through b2) with consolidation enabled vs disabled and reports the nack
traffic that reaches the PHB.  Without consolidation the PHB sees roughly
the sum of both subends' requests; with it, about half.
"""

import pytest

from repro.client import DeliveryChecker
from repro.core.config import PAPER_FAULT_PARAMS
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.topology import balanced_pubend_names, figure3_topology

from _bench_tables import print_table


def run(consolidation: bool):
    params = PAPER_FAULT_PARAMS.with_(nack_consolidation=consolidation)
    names = balanced_pubend_names(4)
    system = figure3_topology(n_pubends=4, pubend_names=names).build(
        seed=7, params=params
    )
    subs = {
        s: system.subscribe(f"sub_{s}", s, tuple(names)) for s in ("s1", "s2")
    }
    pubs = [system.publisher(name, rate=25.0) for name in names]
    fault = FaultSpec("stall_crash", ("b1",), at=5.0, duration=15.0, stall=2.5)
    schedule_steps(system.scheduler, system, fault.steps())
    # Count nacks arriving at the PHB.
    p1 = system.brokers["p1"]
    for pub in pubs:
        pub.start(at=0.2)
    system.run_until(30.0)
    for pub in pubs:
        pub.stop()
    system.run_until(42.0)
    checker = DeliveryChecker(pubs)
    ok = all(
        checker.check(client, system.subscriptions[f"sub_{s}"]).exactly_once
        for s, client in subs.items()
    )
    return {
        "consolidation": consolidation,
        "exactly_once": ok,
        "s1_range": system.metrics.nacks.total_range("s1"),
        "s2_range": system.metrics.nacks.total_range("s2"),
        "b2_range": system.metrics.nacks.total_range("b2"),
        "phb_nacks_received": p1.engine.counters.get("nacks_received", 0),
    }


def test_ablation_nack_consolidation(benchmark):
    on, off = benchmark.pedantic(
        lambda: (run(True), run(False)), rounds=1, iterations=1
    )
    print_table(
        "Ablation — nack consolidation (b1 crash, s1+s2 nacking via b2)",
        ["consolidation", "exactly once", "s1 range", "s2 range",
         "b2 fwd range", "nacks at PHB"],
        [
            [str(r["consolidation"]), r["exactly_once"], f"{r['s1_range']:.0f}",
             f"{r['s2_range']:.0f}", f"{r['b2_range']:.0f}",
             r["phb_nacks_received"]]
            for r in (on, off)
        ],
    )
    # Correctness is unaffected either way.
    assert on["exactly_once"] and off["exactly_once"]
    # With consolidation, b2 forwards about half of s1+s2 combined …
    assert on["b2_range"] == pytest.approx(
        0.5 * (on["s1_range"] + on["s2_range"]), rel=0.15
    )
    # … without it, (almost) everything is forwarded: the PHB sees far
    # more nack traffic.
    assert off["b2_range"] >= 1.6 * on["b2_range"]
    assert off["phb_nacks_received"] >= 1.5 * on["phb_nacks_received"]
