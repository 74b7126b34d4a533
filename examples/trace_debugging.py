"""Trace debugging: watch the protocol conversation around a failure.

Attaches a :class:`~repro.obs.causal.CausalTracer` to a small deployment,
stalls a link mid-run, and prints the causal timeline of one message the
stall lost — the transit that never arrived, the nack leaving the
subscriber-hosting broker, its handling at the publisher-hosting broker,
and the retransmission coming back.  This is the workflow for debugging
the protocol itself: deterministic runs produce byte-identical
timelines, so a regression is a diff.

Run:  python examples/trace_debugging.py
"""

import collections

from repro import LivenessParams
from repro.obs.causal import CausalTracer
from repro.topology import two_broker_topology


def main() -> None:
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    system = topo.build(
        seed=12,
        params=LivenessParams(gct=0.1, nrt_min=0.3),
        log_commit_latency=0.01,
    )
    tracer = CausalTracer(system).install()
    system.subscribe("a", "shb", ("P0",))
    publisher = system.publisher("P0", rate=40.0)

    # Stall the link for 300 ms mid-run: ~12 messages silently vanish.
    system.scheduler.call_at(1.0, lambda: system.stall_link("phb", "shb"))
    system.scheduler.call_at(1.3, lambda: system.recover_link("phb", "shb"))

    publisher.start(at=0.1)
    system.run_until(3.0)
    publisher.stop()
    system.run_until(6.0)

    print("spans of the whole run, by name:")
    for name, count in sorted(collections.Counter(s.name for s in tracer.spans).items()):
        print(f"  {name:<12} {count}")
    acks = system.obs.instruments.total("repro_broker_acks_sent_total")
    print(f"  {'acks sent':<12} {acks:.0f}")

    # A message the stall lost: its first-time transit never closed.
    lost = next(
        s for s in tracer.spans
        if s.name == "transit" and s.open and s.attrs["kind"] == "first"
    )
    timeline = tracer.render_timeline(
        "P0", lost.tick, header="first message lost in the stall"
    )
    print()
    print(timeline)

    story = tracer.spans_for("P0", lost.tick)
    nacks = [s for s in story if s.name == "nack_send"]
    repairs = [
        s for s in story
        if s.name == "transit" and s.attrs["kind"] == "retransmit" and not s.open
    ]
    assert nacks, "the subscriber must have nacked the gap"
    assert repairs, "the PHB must have answered with a retransmission"
    assert ("a", "P0", lost.tick) in [d[:3] for d in tracer.deliveries]
    print(
        f"{len(nacks)} nack(s) repaired the stall; "
        f"{len(repairs)} retransmission(s) carried tick {lost.tick} back."
    )


if __name__ == "__main__":
    main()
