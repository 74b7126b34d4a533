"""Ablation — subend-driven vs pubend-driven liveness (section 3.2).

The protocol offers two recovery mechanisms and "can be run with one of
these approaches or anything in between":

* subend-driven: GCT gap timers + NRT repetition (fast, fine-grained);
* pubend-driven: AET AckExpected probes (slow, coarse, but covers cases
  where the subend cannot see a gap — e.g. the tail of the stream).

The paper runs "low GCT and NRT values, a higher AET, and an infinite
DCT … a mixture of both liveness approaches, with subend-driven liveness
dominating."  This ablation injects the same link failure under three
configurations and reports the recovery latency of the lost burst —
showing why the mixture is the right default.
"""

import math

import pytest

from repro.client import DeliveryChecker
from repro.core.config import LivenessParams
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.topology import balanced_pubend_names, figure3_topology

from _bench_tables import print_table

CONFIGS = {
    # paper default: subend-driven dominates, AET as a backstop
    "mixed (paper)": LivenessParams(gct=0.2, nrt_min=0.6, aet=10.0, dct=math.inf),
    # pure subend-driven: no AckExpected probes
    "subend-only": LivenessParams(gct=0.2, nrt_min=0.6, aet=math.inf, dct=math.inf),
    # pure pubend-driven: gap curiosity disabled, AET must recover
    "pubend-only (AET=4s)": LivenessParams(
        gct=math.inf, nrt_min=0.6, aet=4.0, dct=math.inf
    ),
}


def run(params: LivenessParams):
    names = balanced_pubend_names(4)
    system = figure3_topology(n_pubends=4, pubend_names=names).build(
        seed=7, params=params
    )
    sub = system.subscribe("sub_s1", "s1", tuple(names))
    pubs = [system.publisher(name, rate=25.0) for name in names]
    fault = FaultSpec("stall_link_fail", ("b1", "s1"), at=5.0, duration=8.0, stall=2.0)
    schedule_steps(system.scheduler, system, fault.steps())
    for pub in pubs:
        pub.start(at=0.2)
    system.run_until(25.0)
    for pub in pubs:
        pub.stop()
    system.run_until(45.0)
    report = DeliveryChecker(pubs).check(sub, system.subscriptions["sub_s1"])
    lat = system.metrics.latency.series("sub_s1")
    return {
        "exactly_once": report.exactly_once,
        "peak_latency": lat.max(),
        "nacks": system.metrics.nacks.count("s1"),
    }


def test_ablation_liveness_mix(benchmark):
    results = benchmark.pedantic(
        lambda: {name: run(params) for name, params in CONFIGS.items()},
        rounds=1,
        iterations=1,
    )
    print_table(
        "Ablation — liveness configuration (b1-s1 stall 2 s + fail 8 s)",
        ["configuration", "exactly once", "peak latency (s)", "s1 nacks"],
        [
            [name, r["exactly_once"], f"{r['peak_latency']:.2f}", r["nacks"]]
            for name, r in results.items()
        ],
    )
    mixed = results["mixed (paper)"]
    subend = results["subend-only"]
    pubend = results["pubend-only (AET=4s)"]
    # Every configuration eventually delivers exactly once (liveness).
    assert all(r["exactly_once"] for r in results.values())
    # Subend-driven recovery reacts in O(GCT): peak ~ stall duration.
    assert mixed["peak_latency"] < 4.0
    assert subend["peak_latency"] < 4.0
    # Pubend-driven-only recovery waits for the AET probe: markedly
    # slower than the subend-driven configurations.
    assert pubend["peak_latency"] > mixed["peak_latency"] + 1.0
    assert pubend["nacks"] > 0  # probes did trigger nacks
