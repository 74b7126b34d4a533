"""Integration tests for the optional/extension features:

* pre-assigned finality (Aguilera & Strom 2000, paper section 2.2);
* dynamic subscriptions (paper: supported by Gryphon, scoped out of the
  static model — here: subscribers may come and go at an SHB mid-run);
* silence broadcast on/off (the paper's strict first-time-silence rule).
"""

import math

from repro import DeliveryChecker, LivenessParams
from repro.topology import balanced_pubend_names, figure3_topology, two_broker_topology


class TestPreassignedFinality:
    def run_merge_lag(self, params, slow_window=None):
        """Total-order subscriber over a fast and a slow pubend: how long
        do the fast pubend's messages wait for the slow one?

        ``slow_window`` pre-assigns finality at the *slow* pubend only
        (the paper's framing: a pubend aware of its own expected
        publication period).
        """
        names = balanced_pubend_names(2)
        fast, slow = names
        preassign = {slow: slow_window} if slow_window else None
        system = figure3_topology(
            n_pubends=2, pubend_names=names, preassign=preassign
        ).build(seed=31, params=params)
        sub = system.subscribe("t", "s1", tuple(names), total_order=True)
        fast_pub = system.publisher(fast, rate=50.0)
        slow_pub = system.publisher(slow, rate=2.0)
        fast_pub.start(at=0.2)
        slow_pub.start(at=0.2)
        system.run_until(6.0)
        fast_pub.stop()
        slow_pub.stop()
        system.run_until(12.0)
        report_ok = all(
            DeliveryChecker([fast_pub, slow_pub])
            .check(sub, system.subscriptions["t"])
            .exactly_once
            for __ in (0,)
        )
        lat = system.metrics.latency.series("t")
        return report_ok, lat.median()

    def test_preassign_cuts_merge_latency(self):
        base = LivenessParams(silence_interval=0.5)
        ok_without, lag_without = self.run_merge_lag(base)
        ok_with, lag_with = self.run_merge_lag(base, slow_window=0.5)
        assert ok_without and ok_with
        # Without pre-assigned F, the merged stream waits for the slow
        # pubend's next message or silence (~hundreds of ms); with it,
        # every publication finalizes the next 500 ms up front.
        assert lag_with < lag_without / 2

    def test_preassign_preserves_tick_monotonicity(self):
        from repro.core.pubend import Pubend
        from repro.storage.log import MemoryLog

        pb = Pubend("P", MemoryLog(), preassign_window=0.2)
        t1 = pb.publish("a", 1.0).data[0].tick
        # Publishing "too early" is pushed past the pre-assigned window.
        t2 = pb.publish("b", 1.01).data[0].tick
        assert t2 >= t1 + 200
        assert pb.horizon == t2 + 1 + 200

    def test_preassign_message_carries_future_finality(self):
        from repro.core.pubend import Pubend
        from repro.storage.log import MemoryLog

        pb = Pubend("P", MemoryLog(), preassign_window=0.1)
        message = pb.publish("a", 1.0)
        tick = message.data[0].tick
        future = [r for r in message.f_ranges if r.start == tick + 1]
        assert future and len(future[0]) == 100


class TestDynamicSubscriptions:
    def test_subscriber_joining_mid_run_gets_the_future(self):
        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        system = topo.build(seed=5)
        early = system.subscribe("early", "shb", ("P0",))
        pub = system.publisher("P0", rate=50.0)
        pub.start(at=0.1)
        system.run_until(2.0)
        published_before_join = len(pub.published)
        late = system.subscribe("late", "shb", ("P0",))
        system.run_until(4.0)
        pub.stop()
        system.run_until(6.0)
        # The late subscriber sees (at least) everything published after
        # it joined, in order, without duplicates — and nothing breaks
        # for the early one.
        assert late.count() >= len(pub.published) - published_before_join - 5
        assert late.count() < len(pub.published)
        ticks = late.delivered_ticks("P0")
        assert ticks == sorted(ticks)
        report = DeliveryChecker([pub]).check(early, system.subscriptions["early"])
        assert report.exactly_once

    def test_unsubscribe_mid_run(self):
        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        system = topo.build(seed=5)
        fickle = system.subscribe("fickle", "shb", ("P0",))
        stable = system.subscribe("stable", "shb", ("P0",))
        pub = system.publisher("P0", rate=50.0)
        pub.start(at=0.1)
        system.run_until(2.0)

        def leave():
            system.brokers["shb"].engine.subend.unsubscribe("fickle")

        system.scheduler.call_at(2.0, leave)
        count_at_leave = fickle.count()
        system.run_until(4.0)
        pub.stop()
        system.run_until(6.0)
        assert fickle.count() <= count_at_leave + 10  # nothing after leaving
        report = DeliveryChecker([pub]).check(stable, system.subscriptions["stable"])
        assert report.exactly_once


class TestSilenceBroadcastAblation:
    def test_paper_strict_silence_rule_still_exactly_once(self):
        """silence_broadcast=False is the paper's strict rule: first-time
        silence only to curious paths.  Liveness then leans on AET."""
        params = LivenessParams(
            gct=0.1, nrt_min=0.3, aet=2.0, dct=math.inf, silence_broadcast=False
        )
        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        system = topo.build(seed=9, params=params, log_commit_latency=0.01)
        system.network.link("phb", "shb").drop_probability = 0.05
        sub = system.subscribe("a", "shb", ("P0",))
        pub = system.publisher("P0", rate=40.0)
        pub.start(at=0.1)
        system.run_until(4.0)
        pub.stop()
        system.run_until(20.0)
        report = DeliveryChecker([pub]).check(sub, system.subscriptions["a"])
        assert report.exactly_once
