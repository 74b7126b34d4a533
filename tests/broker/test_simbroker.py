"""Unit tests of the simulator-hosted broker: lifecycle, CPU accounting,
client fan-out scheduling."""

from repro.broker import SimBroker, SubscriberHooks
from repro.broker.state import BrokerTopologyInfo, PubendRoute
from repro.core.config import LivenessParams
from repro.core.edges import FilterEdge, MATCH_ALL
from repro.core.subend import Subscription
from repro.sim.network import SimNetwork
from repro.sim.scheduler import Scheduler
from repro.storage.log import MemoryLog


class Client(SubscriberHooks):
    def __init__(self):
        self.deliveries = []

    def on_delivery(self, pubend, tick, payload, time):
        self.deliveries.append((pubend, tick, payload, time))


def standalone_phb_shb():
    """A connected PHB + SHB pair of SimBrokers."""
    scheduler = Scheduler(seed=1)
    network = SimNetwork(scheduler)
    phb_info = BrokerTopologyInfo(
        broker_id="phb",
        cell="PHB",
        neighbors=frozenset({"shb"}),
        cell_of={"phb": "PHB", "shb": "SHB"},
        brokers_of_cell={"PHB": ("phb",), "SHB": ("shb",)},
        routes={
            "P": PubendRoute(
                pubend="P",
                upstream_cell=None,
                downstream={"SHB": FilterEdge(MATCH_ALL)},
                subtree={"SHB": frozenset()},
            )
        },
    )
    shb_info = BrokerTopologyInfo(
        broker_id="shb",
        cell="SHB",
        neighbors=frozenset({"phb"}),
        cell_of={"phb": "PHB", "shb": "SHB"},
        brokers_of_cell={"PHB": ("phb",), "SHB": ("shb",)},
        routes={"P": PubendRoute(pubend="P", upstream_cell="PHB", downstream={})},
    )
    params = LivenessParams(gct=0.1, nrt_min=0.3)
    phb = SimBroker("phb", network, scheduler, phb_info, params)
    shb = SimBroker("shb", network, scheduler, shb_info, params)
    network.add_node(phb)
    network.add_node(shb)
    network.connect("phb", "shb", latency=0.001)
    return scheduler, phb, shb


class TestDataPath:
    def test_publish_delivers_to_remote_client(self):
        scheduler, phb, shb = standalone_phb_shb()
        client = Client()
        shb.add_subscription(Subscription("a", pubends=("P",)), client)
        log = MemoryLog(commit_latency=0.05)
        phb.host_pubend("P", log)
        phb.start()
        shb.start()
        scheduler.call_at(0.1, lambda: phb.publish("P", {"x": 1}))
        scheduler.run_until(1.0)
        assert len(client.deliveries) == 1
        __, tick, payload, when = client.deliveries[0]
        assert payload == {"x": 1}
        assert when >= 0.15  # commit latency honoured

    def test_publish_while_dead_returns_none(self):
        scheduler, phb, shb = standalone_phb_shb()
        phb.host_pubend("P", MemoryLog())
        phb.crash()
        assert phb.publish("P", {"x": 1}) is None

    def test_cpu_charged_for_publish_and_receive(self):
        scheduler, phb, shb = standalone_phb_shb()
        shb.add_subscription(Subscription("a", pubends=("P",)), Client())
        phb.host_pubend("P", MemoryLog())
        phb.start()
        shb.start()
        scheduler.call_at(0.1, lambda: phb.publish("P", {"x": 1}))
        scheduler.run_until(1.0)
        assert phb.accountant.busy_time > 0
        assert shb.accountant.busy_time > 0
        assert "publish" in phb.accountant.by_category()

    def test_fanout_serializes_client_sends(self):
        scheduler, phb, shb = standalone_phb_shb()
        clients = [Client() for _ in range(20)]
        for i, client in enumerate(clients):
            shb.add_subscription(Subscription(f"c{i}", pubends=("P",)), client)
        phb.host_pubend("P", MemoryLog())
        phb.start()
        shb.start()
        scheduler.call_at(0.1, lambda: phb.publish("P", {"x": 1}))
        scheduler.run_until(1.0)
        times = [c.deliveries[0][3] for c in clients]
        assert len(set(times)) > 1  # the 20 socket writes are serialized
        assert max(times) > min(times)


class TestLifecycle:
    def test_crash_discards_engine_soft_state(self):
        scheduler, phb, shb = standalone_phb_shb()
        phb.host_pubend("P", MemoryLog())
        phb.start()
        shb.start()
        scheduler.call_at(0.1, lambda: phb.publish("P", {"x": 1}))
        scheduler.run_until(0.5)
        phb.crash()
        assert phb.engine is None

    def test_restart_recovers_pubends_from_log(self):
        scheduler, phb, shb = standalone_phb_shb()
        log = MemoryLog()
        phb.host_pubend("P", log)
        phb.start()
        shb.start()
        # Cut the link so no ack can come back: the publication must stay
        # un-truncated in the log and recover as D after the crash.
        phb.network.link("phb", "shb").fail()
        published = []
        scheduler.call_at(0.1, lambda: published.append(phb.publish("P", {"x": 1})))
        scheduler.run_until(0.5)
        phb.crash()
        scheduler.run_until(1.0)
        phb.restart()
        recovered = phb.engine.istreams["P"].stream.knowledge
        assert recovered.value_at(published[0]).name == "D"
        assert recovered.payload_at(published[0]) == {"x": 1}
        assert phb.engine.pubends["P"].horizon == published[0] + 1
        assert log.entries("P")  # still durable, not yet acknowledged

    def test_restart_charges_warmup(self):
        scheduler, phb, shb = standalone_phb_shb()
        phb.restart_warmup = 0.5
        phb.host_pubend("P", MemoryLog())
        phb.crash()
        busy_before = phb.accountant.busy_time
        phb.restart()
        assert phb.accountant.busy_time >= busy_before + 0.5

    def test_messages_ignored_while_crashed(self):
        scheduler, phb, shb = standalone_phb_shb()
        client = Client()
        shb.add_subscription(Subscription("a", pubends=("P",)), client)
        phb.host_pubend("P", MemoryLog())
        phb.start()
        shb.start()
        shb.crash()
        scheduler.call_at(0.1, lambda: phb.publish("P", {"x": 1}))
        scheduler.run_until(1.0)
        assert client.deliveries == []

    def test_exactly_once_across_phb_crash(self):
        scheduler, phb, shb = standalone_phb_shb()
        client = Client()
        shb.add_subscription(Subscription("a", pubends=("P",)), client)
        log = MemoryLog(commit_latency=0.05)
        phb.host_pubend("P", log)
        phb.start()
        shb.start()
        ticks = []

        def pub():
            tick = phb.publish("P", {"x": len(ticks)})
            if tick is not None:
                ticks.append(tick)

        for i in range(20):
            scheduler.call_at(0.1 + i * 0.05, pub)
        # crash right after a commit window, restart later
        scheduler.call_at(0.42, phb.crash)
        scheduler.call_at(0.9, phb.restart)
        scheduler.run_until(30.0)
        delivered = [t for (__, t, ___, ____) in client.deliveries]
        assert delivered == sorted(set(delivered))
        assert set(delivered) == set(ticks)


class TestFailureFreeCuriosity:
    def test_unacked_window_stores_no_curiosity(self):
        """200 gapped publications over a loss-free PHB -> SHB hop: while
        the window is still unacked (sampled at every knowledge arrival,
        with ~10 publications in flight on the slow link) no broker stores
        a single curiosity run — anti-curiosity is knowledge finality, not
        one A run per silent gap between unacked D ticks."""
        from repro.obs.lifecycle import LifecycleListener
        from repro.topology import two_broker_topology

        topo = two_broker_topology(link_latency=0.05)
        topo.pubend("P", "phb")
        topo.route("P", "PHB", "SHB")
        system = topo.build(seed=1, log_commit_latency=0.01)
        client = system.subscribe("a", "shb", ("P",))
        samples = []

        class Sampler(LifecycleListener):
            def knowledge_ingested(self, t, node, src, message, relay=False):
                for broker in system.brokers.values():
                    entry = broker.engine.stats()["streams"]["P"]
                    osts = broker.engine.ostreams.get("P", {}).values()
                    samples.append(
                        (
                            entry["curiosity_runs"],
                            [o.stream.curiosity.run_count() for o in osts],
                            [o["runs"] for o in entry["ostreams"].values()],
                        )
                    )

        system.obs.lifecycle.attach(Sampler())
        system.publisher("P", rate=100.0, max_messages=200).start(at=0.1)
        system.run_for(4.0)
        assert client.count() == 200
        assert len(samples) >= 400
        # The PHB's path really held a window of unacked D ticks with
        # silent gaps between them ...
        assert max(max(runs, default=0) for __, ___, runs in samples) >= 10
        # ... and nothing was ever stored on the curiosity side.
        assert {s[0] for s in samples} == {0}
        assert all(count == 0 for __, counts, ___ in samples for count in counts)


class TestWindowIndependence:
    @staticmethod
    def chain_run(depth):
        """1000 publications at 500 msg/s down a loss-free PHB-MID-SHB
        chain whose link latency holds the acks back so the PHB's unacked
        window is ``depth`` publications deep; per-publication
        ``IntervalMap`` work over the whole run, drain included."""
        from repro.core.intervals import STATS
        from repro.topology import Topology

        latency = depth / 500.0 / 4  # an ack returns after four hops
        topo = Topology()
        topo.cell("PHB", "p")
        topo.cell("MID", "m")
        topo.cell("SHB", "s")
        topo.link("p", "m", latency=latency)
        topo.link("m", "s", latency=latency)
        topo.pubend("P0", "p")
        topo.route_all("PHB", "MID")
        topo.route_all("MID", "SHB")
        system = topo.build(seed=1, log_commit_latency=0.0)
        client = system.subscribe("sub", "s", ("P0",))
        before = STATS.snapshot()
        system.publisher("P0", rate=500.0, max_messages=1000).start(at=0.1)
        system.run_until(2.1)  # the last publication has just left
        held = system.brokers["p"].engine.ostreams["P0"]["MID"].stream.knowledge
        window = (held.d_tick_count(), held.run_count())
        system.run_until(8.0)  # same simulated span, so same timer work
        assert client.count() == 1000
        after = STATS.snapshot()
        return window, {k: (after[k] - before[k]) / 1000 for k in after}

    def test_interval_work_per_publication_ignores_window_depth(self):
        """Engine cost is a function of the live window's *edges*, not its
        depth: scans bisect to their range and acks front-trim, so ten
        times the unacked window costs the same steps per publication."""
        shallow_window, shallow = self.chain_run(100)
        deep_window, deep = self.chain_run(1000)
        # The windows really were that deep: one D and one silent run per
        # unacked publication on the PHB's path.
        assert shallow_window == (100, 198)
        assert deep_window == (1000, 1998)
        for key in ("scan_steps", "splices"):
            assert abs(deep[key] - shallow[key]) <= 0.1 * shallow[key] + 0.01, key
        # Measured 6.0 scan steps and 0 general splices per publication
        # (6.0 splices before the prefix was a cursor); +25% headroom.
        assert deep["scan_steps"] <= 7.5
        assert deep["splices"] <= 0.05


class TestSubscriberCountIndependence:
    @staticmethod
    def fanout_run(subscribers):
        """200 publications down a two-broker system whose SHB holds
        ``subscribers`` content subscriptions, of which the same ten match
        every publication; Python line events executed inside the subend
        and the matching tree per publication, and what was delivered."""
        import sys

        from repro.topology import two_broker_topology

        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        system = topo.build(seed=1)
        for i in range(subscribers):
            hot = i < 200 and i % 20 == 0
            system.subscribe(
                f"sub{i}", "shb", ("P0",), "hot = 1" if hot else f"group = {i}"
            )
        system.publisher(
            "P0", rate=100.0, max_messages=200,
            make_attributes=lambda seq: {"hot": 1, "group": -1 - seq},
        ).start(at=0.1)
        lines = [0]

        def count_line(frame, event, arg):
            lines[0] += event == "line"
            return count_line

        def trace(frame, event, arg):
            if frame.f_code.co_filename.endswith(
                ("repro/core/subend.py", "repro/matching/tree.py")
            ):
                return count_line
            return None

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            system.run_until(4.0)
        finally:
            sys.settrace(previous)
        delivered = {
            name: [(p, t) for (p, t, __, ___) in client.received]
            for name, client in system.subscribers.items()
            if client.received
        }
        return lines[0] / 200, delivered

    def test_shb_work_per_publication_ignores_subscriber_count(self):
        """The paper's Figure 4 claim (2) for the code that runs: SHB
        matching and fan-out cost follows the matches, not the local
        subscriber count — the index iterates the tree's result, never the
        candidate set.  A count, not a timing."""
        few_lines, few = self.fanout_run(200)
        many_lines, many = self.fanout_run(4000)
        assert few == many
        assert sorted(few) == sorted(f"sub{i}" for i in range(0, 200, 20))
        assert all(len(ticks) == 200 for ticks in few.values())
        # 198.8 at both sizes; 800.8 and 12200.8 when every publication
        # walked every subscriber.
        assert abs(many_lines - few_lines) < 0.02 * few_lines
