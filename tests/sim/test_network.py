"""Unit tests for simulated links and the network fabric."""

import pytest

from repro.sim.network import Node, SimNetwork
from repro.sim.scheduler import Scheduler


class Recorder(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def receive(self, src, message):
        self.received.append((src, message))


def make_net(**link_params):
    scheduler = Scheduler(seed=1)
    net = SimNetwork(scheduler)
    a, b = Recorder("a"), Recorder("b")
    net.add_node(a)
    net.add_node(b)
    net.connect("a", "b", **link_params)
    return scheduler, net, a, b


class TestDelivery:
    def test_basic_delivery_after_latency(self):
        scheduler, net, a, b = make_net(latency=0.01)
        net.send("a", "b", "hello")
        scheduler.run_until(0.005)
        assert b.received == []
        scheduler.run_until(0.02)
        assert b.received == [("a", "hello")]

    def test_bidirectional(self):
        scheduler, net, a, b = make_net()
        net.send("b", "a", "hi")
        scheduler.run()
        assert a.received == [("b", "hi")]

    def test_send_without_link_fails_quietly(self):
        scheduler, net, a, b = make_net()
        assert not net.send("a", "zzz", "x")

    def test_jitter_can_reorder(self):
        scheduler = Scheduler(seed=3)
        net = SimNetwork(scheduler)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        net.connect("a", "b", latency=0.001, jitter=0.05)
        for i in range(50):
            net.send("a", "b", i)
        scheduler.run()
        order = [m for (__, m) in b.received]
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # reordering actually happened

    def test_random_drop(self):
        scheduler = Scheduler(seed=5)
        net = SimNetwork(scheduler)
        a, b = Recorder("a"), Recorder("b")
        net.add_node(a)
        net.add_node(b)
        link = net.connect("a", "b", drop_probability=0.5)
        for i in range(200):
            net.send("a", "b", i)
        scheduler.run()
        assert 0 < len(b.received) < 200
        assert link.stats.dropped_random > 0

    def test_bandwidth_serializes(self):
        scheduler, net, a, b = make_net(latency=0.0, bandwidth_bps=8000.0)
        # 100 bytes = 800 bits = 0.1 s each
        net.send("a", "b", 1, size_bytes=100)
        net.send("a", "b", 2, size_bytes=100)
        scheduler.run_until(0.15)
        assert [m for (__, m) in b.received] == [1]
        scheduler.run_until(0.25)
        assert [m for (__, m) in b.received] == [1, 2]


class TestFailures:
    def test_down_link_drops(self):
        scheduler, net, a, b = make_net()
        link = net.link("a", "b")
        link.fail()
        net.send("a", "b", "lost")
        scheduler.run()
        assert b.received == []
        assert link.stats.dropped_down == 1
        link.recover()
        net.send("a", "b", "ok")
        scheduler.run()
        assert [m for (__, m) in b.received] == ["ok"]

    def test_stalled_link_absorbs(self):
        scheduler, net, a, b = make_net()
        link = net.link("a", "b")
        link.stall()
        net.send("a", "b", "absorbed")
        scheduler.run()
        assert b.received == []
        assert link.stats.dropped_stalled == 1

    def test_stall_is_invisible_to_usability_check(self):
        scheduler, net, a, b = make_net()
        net.link("a", "b").stall()
        assert net.link_is_usable("a", "b")
        net.link("a", "b").fail()
        assert not net.link_is_usable("a", "b")

    def test_in_flight_lost_when_link_dies(self):
        scheduler, net, a, b = make_net(latency=0.1)
        net.send("a", "b", "in-flight")
        scheduler.run_until(0.05)
        net.link("a", "b").fail()
        scheduler.run()
        assert b.received == []

    def test_dead_node_receives_nothing(self):
        scheduler, net, a, b = make_net()
        b.alive = False
        net.send("a", "b", "x")
        scheduler.run()
        assert b.received == []

    def test_dead_node_cannot_send(self):
        scheduler, net, a, b = make_net()
        a.alive = False
        assert not net.send("a", "b", "x")

    def test_usability_sees_dead_peer(self):
        scheduler, net, a, b = make_net()
        b.alive = False
        assert not net.link_is_usable("a", "b")


class TestPairVerbs:
    """The network answers the transport's six pair verbs, so the system
    shell drives both backends' wires the same way."""

    def test_corrupt_folds_into_the_drop_override(self):
        __, net, __a, __b = make_net(drop_probability=0.01, jitter=0.002)
        link = net.link("a", "b")
        net.set_pathology("b", "a", drop_probability=0.2, corrupt_probability=0.1)
        assert link.pathology() == (1.0 - (1.0 - 0.2) * (1.0 - 0.1), 0.002)
        net.set_pathology("a", "b", corrupt_probability=0.3)
        assert link.pathology() == (0.3, 0.002)
        net.set_pathology("a", "b", jitter=0.05)
        assert link.pathology() == (0.01, 0.05)
        net.clear_pathology("a", "b")
        assert link.pathology() == (0.01, 0.002)

    def test_unstall_leaves_a_failed_link_down(self):
        __, net, __a, __b = make_net()
        link = net.link("a", "b")
        net.stall("a", "b")
        assert link.stalled and link.up
        net.fail_link("b", "a")
        assert not link.up and not link.stalled
        net.stall("a", "b")
        net.unstall("a", "b")
        assert not link.up and not link.stalled
        net.recover_link("a", "b")
        assert link.up and not link.stalled


class TestTopologyQueries:
    def test_neighbors(self):
        scheduler = Scheduler()
        net = SimNetwork(scheduler)
        for name in ("a", "b", "c"):
            net.add_node(Recorder(name))
        net.connect("a", "b")
        net.connect("a", "c")
        assert net.neighbors("a") == ["b", "c"]
        assert net.neighbors("b") == ["a"]

    def test_duplicate_node_rejected(self):
        net = SimNetwork(Scheduler())
        net.add_node(Recorder("a"))
        with pytest.raises(ValueError):
            net.add_node(Recorder("a"))

    def test_duplicate_link_rejected(self):
        net = SimNetwork(Scheduler())
        net.add_node(Recorder("a"))
        net.add_node(Recorder("b"))
        net.connect("a", "b")
        with pytest.raises(ValueError):
            net.connect("b", "a")

    def test_self_link_rejected(self):
        net = SimNetwork(Scheduler())
        net.add_node(Recorder("a"))
        with pytest.raises(ValueError):
            net.connect("a", "a")

    def test_links_of(self):
        net = SimNetwork(Scheduler())
        for name in ("a", "b", "c"):
            net.add_node(Recorder(name))
        net.connect("a", "b")
        net.connect("b", "c")
        assert len(net.links_of("b")) == 2
        assert len(net.links_of("a")) == 1
