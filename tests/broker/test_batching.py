"""Batched delta knowledge propagation (``LivenessParams.flush_delay``).

The flush knob trades knowledge-message volume for propagation latency:
``flush_delay=0`` (the default) keeps the original send-per-update
semantics, while ``flush_delay>0`` accumulates dirty ticks per ostream
and flushes one coalesced KnowledgeMessage per window.  These tests pin
the contract: coalescing really happens, exactly-once is preserved under
loss and crashes, retransmissions are never delayed, and the default is
bit-identical to the pre-batching behaviour.
"""

from repro.core.config import LivenessParams
from repro.topology import Topology


def chain_system(flush_delay, seed=1, drop=0.0):
    """PHB -> MID -> SHB chain, one pubend, one remote subscriber."""
    topo = Topology()
    topo.cell("PHB", "p")
    topo.cell("MID", "m")
    topo.cell("SHB", "s")
    topo.link("p", "m", latency=0.002)
    topo.link("m", "s", latency=0.002)
    topo.pubend("P0", "p")
    topo.route_all("PHB", "MID")
    topo.route_all("MID", "SHB")
    system = topo.build(
        seed=seed,
        params=LivenessParams(gct=0.1, nrt_min=0.3, flush_delay=flush_delay),
        log_commit_latency=0.0,
    )
    if drop:
        system.network.link("p", "m").drop_probability = drop
        system.network.link("m", "s").drop_probability = drop
    subscriber = system.subscribe("sub", "s", ("P0",))
    publisher = system.publisher("P0", rate=200.0)
    return system, publisher, subscriber


def run_chain(flush_delay, seed=1, drop=0.0, publish_until=1.5, drain=6.0):
    system, publisher, subscriber = chain_system(flush_delay, seed, drop)
    publisher.start(at=0.05)
    system.run_until(publish_until)
    publisher.stop()
    system.run_for(drain)
    return system, publisher, subscriber


def knowledge_sent(system):
    return sum(
        broker.engine.counters.get("knowledge_sent", 0)
        for broker in system.brokers.values()
        if getattr(broker, "engine", None) is not None
    )


def knowledge_flushes(system):
    return sum(
        broker.engine.counters.get("knowledge_flushes", 0)
        for broker in system.brokers.values()
        if getattr(broker, "engine", None) is not None
    )


class TestCoalescing:
    def test_batching_coalesces_knowledge_messages(self):
        sys_imm, pub_imm, sub_imm = run_chain(0.0)
        sys_bat, pub_bat, sub_bat = run_chain(0.05)
        assert sub_imm.count() == len(pub_imm.published) > 0
        assert sub_bat.count() == len(pub_bat.published) > 0
        sent_imm, sent_bat = knowledge_sent(sys_imm), knowledge_sent(sys_bat)
        # The acceptance bar for this PR: at least a 2x reduction.
        assert sent_imm >= 2 * sent_bat, (sent_imm, sent_bat)

    def test_immediate_mode_never_flushes(self):
        system, __, ___ = run_chain(0.0)
        assert knowledge_flushes(system) == 0

    def test_batched_mode_counts_flushes(self):
        system, __, ___ = run_chain(0.05)
        flushes = knowledge_flushes(system)
        assert flushes > 0
        # One coalesced send costs one flush; flushed sends can't exceed
        # total knowledge sends.
        assert flushes <= knowledge_sent(system)

    def test_flush_counter_on_observability_plane(self):
        system, __, ___ = run_chain(0.05)
        total = system.obs.instruments.total(
            "repro_broker_knowledge_flushes_total"
        )
        assert total == knowledge_flushes(system) > 0


class TestExactlyOnce:
    def test_exactly_once_with_batching_and_loss(self):
        # Retransmissions (curiosity answers) must bypass the flush
        # window, so a lossy chain still converges within the drain.
        system, publisher, subscriber = run_chain(
            0.05, seed=3, drop=0.1, drain=10.0
        )
        assert len(publisher.published) > 0
        assert subscriber.count() == len(publisher.published)
        ticks = sorted(t for (__, t, ___, ____) in subscriber.received)
        assert ticks == sorted(set(ticks)), "duplicate delivery"

    def test_exactly_once_across_mid_broker_crash(self):
        # A crash while flushes are pending must not lose the window's
        # ticks (epoch gating + timer cancellation + recovery nacks).
        system, publisher, subscriber = chain_system(0.05, seed=5)
        system.scheduler.call_at(0.6, lambda: system.crash_broker("m"))
        system.scheduler.call_at(1.1, lambda: system.restart_broker("m"))
        publisher.start(at=0.05)
        system.run_until(1.5)
        publisher.stop()
        system.run_for(10.0)
        assert len(publisher.published) > 0
        assert subscriber.count() == len(publisher.published)

    def test_default_params_disable_batching(self):
        assert LivenessParams().flush_delay == 0.0
