"""Stock ticker: the paper's service-agreement motivation.

"It is unacceptable for some stock traders not to see a trade event that
others see" (paper, section 1).  This example runs a trade feed over the
paper's Figure 3 network — one publisher-hosting broker, two redundant
intermediate cells, five subscriber-hosting brokers — subscribes traders
at different SHBs with different content filters, then kills an
intermediate broker mid-session.

Despite the crash, every trader sees *exactly* the trades matching their
filter, in order: traders behind the failed broker experience a latency
blip while the nack/retransmission machinery recovers the lost burst, but
no trader misses a trade that others saw.

Run:  python examples/stock_ticker.py
"""

from repro import DeliveryChecker, PAPER_FAULT_PARAMS
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.topology import balanced_pubend_names, figure3_topology

SYMBOLS = ["IBM", "ACME", "GRYP", "PUBX"]


def main() -> None:
    # Four pubends at p1, one per exchange feed partition.
    feeds = balanced_pubend_names(4)
    system = figure3_topology(n_pubends=4, pubend_names=feeds).build(
        seed=2026, params=PAPER_FAULT_PARAMS
    )

    # Traders at different SHBs, with content-based subscriptions.
    traders = {
        "day_trader": system.subscribe(
            "day_trader", "s1", tuple(feeds), "symbol = 'IBM'"
        ),
        "quant": system.subscribe(
            "quant", "s2", tuple(feeds), "price > 150 and volume >= 500"
        ),
        "auditor": system.subscribe("auditor", "s4", tuple(feeds)),  # everything
    }

    publishers = []
    for k, feed in enumerate(feeds):
        publishers.append(
            system.publisher(
                feed,
                rate=25.0,
                make_attributes=lambda i, k=k: {
                    "symbol": SYMBOLS[(i + k) % len(SYMBOLS)],
                    "price": 100 + (i * 13 + k * 7) % 100,
                    "volume": 100 * ((i + k) % 10 + 1),
                },
            )
        )

    # Crash intermediate broker b1 mid-session (with the paper's stall,
    # so ~2s of trades on its paths are actually lost in flight).
    fault = FaultSpec("stall_crash", ("b1",), at=5.0, duration=10.0, stall=2.0)
    schedule_steps(system.scheduler, system, fault.steps())

    for publisher in publishers:
        publisher.start(at=0.2)
    system.run_until(25.0)
    for publisher in publishers:
        publisher.stop()
    system.run_until(40.0)

    print("fault timeline:")
    for event in system.obs.fault_events:
        print(f"  {event}")
    print()

    checker = DeliveryChecker(publishers)
    for name, client in traders.items():
        report = checker.check(client, system.subscriptions[name])
        series = system.metrics.latency.series(name)
        print(
            f"{name:>10}: {report.delivered:4d} trades "
            f"(expected {report.matching_published}), "
            f"exactly once: {report.exactly_once}, "
            f"median latency {1000 * series.median():6.1f} ms, "
            f"worst {series.max():.2f} s"
        )
        assert report.exactly_once

    total = sum(len(p.published) for p in publishers)
    print(f"\n{total} trades published; nobody missed a trade others saw.")
    for node in system.metrics.nacks.nodes():
        print(
            f"  {node}: {system.metrics.nacks.count(node)} nack messages, "
            f"{system.metrics.nacks.total_range(node):.0f} ms of ticks requested"
        )


if __name__ == "__main__":
    main()
