"""Trace debugging: watch the protocol conversation around a failure.

Attaches a :class:`~repro.obs.trace.Tracer` to a small deployment, breaks
a link mid-run, and prints the exact message exchange that repairs the
loss — the nack leaving the subscriber-hosting broker, its consolidation,
and the retransmission coming back.  This is the workflow for debugging
the protocol itself: deterministic runs produce byte-identical traces, so
a regression is a diff.

Run:  python examples/trace_debugging.py
"""

from repro import LivenessParams
from repro.obs.trace import Tracer
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
    tracer = Tracer(system).install()
    system.subscribe("a", "shb", ("P0",))
    publisher = system.publisher("P0", rate=40.0)

    # Stall the link for 300 ms mid-run: ~12 messages silently vanish.
    system.scheduler.call_at(1.0, lambda: system.stall_link("phb", "shb"))
    system.scheduler.call_at(1.3, lambda: system.recover_link("phb", "shb"))

    publisher.start(at=0.1)
    system.run_until(3.0)
    publisher.stop()
    system.run_until(6.0)

    print("traffic fingerprint of the whole run:")
    for key, count in sorted(tracer.counts().items()):
        print(f"  {key:<22} {count}")

    print("\nthe repair conversation (window 1.25s..1.75s, control traffic):")
    window = [
        event
        for event in tracer.filter(t0=1.25, t1=1.75)
        if event.detail.get("msg") in ("nack", "retransmit", "ack")
        or event.kind == "fault"
    ]
    print(tracer.render(window))

    print("\nfirst deliveries after the repair:")
    deliveries = tracer.filter(kind="deliver", t0=1.3)[:6]
    print(tracer.render(deliveries))

    nacks = tracer.filter(msg="nack")
    retransmits = tracer.filter(msg="retransmit")
    assert nacks, "the subscriber must have nacked the gap"
    assert retransmits, "the PHB must have answered"
    print(
        f"\n{len(nacks)} nack(s) repaired the stall; "
        f"{len(retransmits)} retransmission(s) carried the data back."
    )


if __name__ == "__main__":
    main()
