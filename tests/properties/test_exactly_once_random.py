"""Property-based end-to-end tests: exactly-once under *any* randomized
schedule of drops, stalls, link failures and broker crashes.

Hypothesis drives the fault schedule; every run asserts the paper's
service specification through the :class:`repro.check.OracleSuite` — the
same oracles the fuzzer (``python -m repro fuzz``) sweeps continuously:
delivery safety, knowledge-lattice monotonicity, truncation safety,
stream invariants while running, then exactly-once/gapless delivery and
total-order consistency after a quiescent drain.

The link-pathology dimension (clean, lossy, reordering, both) and the
topology dimension (single-path two-broker vs. redundant-path figure 3)
are pytest parameters, so each combination is a separately reported and
separately selectable case.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import FaultSpec, OracleSuite
from repro.check.runner import schedule_steps
from repro.check.scenario import FAST_PARAMS
from repro.topology import (
    balanced_pubend_names,
    figure3_topology,
    two_broker_topology,
)

#: Ambient link pathology: (drop probability, reorder jitter seconds).
LINK_PATHOLOGY = {
    "clean": (0.0, 0.0),
    "lossy": (0.08, 0.0),
    "reordering": (0.0, 0.02),
    "lossy-reordering": (0.05, 0.015),
}

#: (kind, target, share of the fault's window spent stalled first).
fault_specs = st.lists(
    st.builds(
        lambda shape, start, window: FaultSpec(
            kind=shape[0],
            target=shape[1],
            at=start,
            stall=window * shape[2],
            duration=window * (1.0 - shape[2]),
        ),
        st.sampled_from(
            [
                ("link_fail", ("b1", "s1"), 0.0),
                ("link_fail", ("b2", "s1"), 0.0),
                ("link_fail", ("p1", "b1"), 0.0),
                ("stall_link_fail", ("b1", "s1"), 0.5),
                ("crash", ("b1",), 0.0),
                ("crash", ("b2",), 0.0),
                ("crash", ("p1",), 0.0),
            ]
        ),
        st.floats(1.0, 8.0),  # start time
        st.floats(0.5, 4.0),  # stall + outage window
    ),
    max_size=3,
)


def set_pathology(system, pathology):
    drop, jitter = LINK_PATHOLOGY[pathology]
    for link in system.network._links.values():
        link.drop_probability = drop
        link.jitter = jitter


def run_and_judge(system, pubs, publish_until, drain_until):
    """Run under the full oracle suite; continuous oracles raise inside
    the run, the offline oracles are asserted after the drain."""
    suite = OracleSuite(system, pubs)
    suite.install()
    for pub in pubs:
        pub.start(at=0.2)
        system.scheduler.call_at(publish_until, pub.stop)
    system.run_until(drain_until)
    failures = suite.final_check(pubs)
    assert not failures, [str(f) for f in failures[:3]]
    assert suite.sweeps > 0
    return suite


def build_two_broker(seed):
    """Single path: PHB -> SHB, one pubend, a filtering subscriber."""
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    system = topo.build(seed=seed, params=FAST_PARAMS, log_commit_latency=0.01)
    system.subscribe("a", "shb", ("P0",), "g = 1")
    pubs = [
        system.publisher("P0", rate=60.0, make_attributes=lambda i: {"g": i % 3})
    ]
    return system, pubs


def build_figure3(seed):
    """Redundant paths: every SHB reaches the PHB through two IBs."""
    names = balanced_pubend_names(2)
    system = figure3_topology(n_pubends=2, pubend_names=names).build(
        seed=seed, params=FAST_PARAMS
    )
    system.subscribe("c1", "s1", tuple(names))
    system.subscribe("c3", "s3", tuple(names))
    pubs = [system.publisher(name, rate=20.0) for name in names]
    return system, pubs


TOPOLOGIES = {"two_broker": build_two_broker, "figure3": build_figure3}


class TestRandomFaultSchedules:
    @given(faults=fault_specs, seed=st.integers(0, 2**16), drop=st.floats(0.0, 0.08))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_exactly_once_on_figure3(self, faults, seed, drop):
        system, pubs = build_figure3(seed)
        if drop:
            for link in system.network._links.values():
                link.drop_probability = drop
        for fault in faults:
            schedule_steps(system.scheduler, system, fault.steps())
        # Quiescent drain: all faults healed by t=12; liveness must finish.
        run_and_judge(system, pubs, publish_until=12.0, drain_until=32.0)


class TestLinkPathologies:
    @pytest.mark.parametrize("pathology", sorted(LINK_PATHOLOGY))
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_exactly_once_under_pathology(self, topology, pathology, seed):
        system, pubs = TOPOLOGIES[topology](seed)
        set_pathology(system, pathology)
        horizon = 5.0 if topology == "two_broker" else 8.0
        run_and_judge(
            system, pubs, publish_until=horizon, drain_until=horizon + 18.0
        )


class TestTotalOrder:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_total_order_consistent_under_loss(self, seed):
        names = balanced_pubend_names(2)
        system = figure3_topology(n_pubends=2, pubend_names=names).build(
            seed=seed, params=FAST_PARAMS
        )
        set_pathology(system, "lossy")
        t1 = system.subscribe("t1", "s1", tuple(names), total_order=True)
        t2 = system.subscribe("t2", "s5", tuple(names), total_order=True)
        pubs = [system.publisher(name, rate=20.0) for name in names]
        run_and_judge(system, pubs, publish_until=8.0, drain_until=28.0)
        # The oracle already proved the sequences identical and complete;
        # spot-check the merge really interleaved both pubends.
        seq1 = [(p, t) for (p, t, __, ___) in t1.received]
        seq2 = [(p, t) for (p, t, __, ___) in t2.received]
        assert seq1 == seq2
        assert {p for p, __ in seq1} == set(names)
