"""End-to-end observability: instruments agree with the legacy recorders.

Runs the paper's Figure 6 scenario (b1-s1 link stall/fail/recover on the
figure3 topology) and cross-checks every layer's instruments against the
independent ground truth: the MetricsHub recorders the figures are drawn
from, the subscriber clients' own delivery counts, and the
DeliveryChecker's exactly-once verdict.
"""

import pytest

from repro.client import DeliveryChecker
from repro.core.config import PAPER_FAULT_PARAMS
from repro.check import FaultSpec
from repro.check.runner import schedule_steps
from repro.topology import balanced_pubend_names, figure3_topology

SHBS = ("s1", "s2", "s3", "s4", "s5")


@pytest.fixture(scope="module")
def faulted_run():
    names = balanced_pubend_names(4)
    system = figure3_topology(pubend_names=names).build(
        seed=7, params=PAPER_FAULT_PARAMS
    )
    clients = {
        shb: system.subscribe(f"sub_{shb}", shb, tuple(names)) for shb in SHBS
    }
    publishers = [system.publisher(name, rate=20.0) for name in names]
    fault = FaultSpec("stall_link_fail", ("b1", "s1"), at=2.0, duration=3.0, stall=1.0)
    schedule_steps(system.scheduler, system, fault.steps())
    for publisher in publishers:
        publisher.start(at=0.2)
    system.run_until(10.0)
    for publisher in publishers:
        publisher.stop()
    system.run_until(20.0)
    system.check_invariants()
    return system, clients, publishers


class TestInstrumentsAgreeWithRecorders:
    def test_fault_actually_exercised_nacks(self, faulted_run):
        system, _, _ = faulted_run
        assert system.obs.instruments.total("repro_broker_nacks_sent_total") > 0
        # The stall phase absorbs traffic on the b1-s1 link (senders cannot
        # tell), which is what creates the gaps the nacks repair.
        stalled = system.obs.instruments.get(
            "repro_network_dropped_total", link="b1-s1", reason="stalled"
        )
        assert stalled is not None and stalled.value > 0

    def test_nack_counter_matches_nack_recorder(self, faulted_run):
        system, _, _ = faulted_run
        recorder = system.metrics.nacks
        for node in system.brokers:
            child = system.obs.instruments.get(
                "repro_broker_nacks_sent_total", broker=node
            )
            assert child is not None
            assert child.value == recorder.count(node), node

    def test_nack_range_histogram_matches_nack_recorder(self, faulted_run):
        system, _, _ = faulted_run
        recorder = system.metrics.nacks
        for node in system.brokers:
            hist = system.obs.instruments.get(
                "repro_broker_nack_range_ticks", broker=node
            )
            assert hist is not None
            assert hist.sum == pytest.approx(recorder.total_range(node)), node
            assert hist.count == recorder.count(node), node

    def test_delivery_counter_matches_clients_and_hub(self, faulted_run):
        system, clients, _ = faulted_run
        total = sum(client.count() for client in clients.values())
        assert total > 0
        assert system.obs.instruments.total("repro_subend_deliveries_total") == total
        assert system.metrics.latency.delivered == total

    def test_exactly_once_under_the_fault(self, faulted_run):
        system, clients, publishers = faulted_run
        checker = DeliveryChecker(publishers)
        for shb, client in clients.items():
            report = checker.check(
                client, system.subscriptions[f"sub_{shb}"]
            )
            assert report.exactly_once, shb

    def test_pubend_instruments_match_publishers(self, faulted_run):
        system, _, publishers = faulted_run
        published = sum(len(p.published) for p in publishers)
        assert system.obs.instruments.total(
            "repro_pubend_publishes_total"
        ) == published
        assert system.obs.instruments.total(
            "repro_pubend_log_appends_total"
        ) == published

    def test_network_counters_match_link_stats(self, faulted_run):
        system, _, _ = faulted_run
        for link in system.network.links_of("p1"):
            name = "-".join(sorted(link.endpoints()))
            sent = system.obs.instruments.get("repro_network_sent_total", link=name)
            delivered = system.obs.instruments.get(
                "repro_network_delivered_total", link=name
            )
            assert sent.value == link.stats.sent
            assert delivered.value == link.stats.delivered
