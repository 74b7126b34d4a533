"""The oracle suite catches violations and stays quiet on healthy runs."""

import pytest

from repro.check import ORACLES, OracleFailure, OracleSuite
from repro.core.config import LivenessParams
from repro.core.lattice import K
from repro.core.streams import KnowledgeStream
from repro.core.subend import SubendManager
from repro.core.ticks import TickRange
from repro.topology import two_broker_topology


def build_system(seed=11, **params):
    defaults = dict(gct=0.1, nrt_min=0.3)
    defaults.update(params)
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    return topo.build(seed=seed, params=LivenessParams(**defaults))


class TestHealthyRun:
    def test_no_failures_on_a_lossy_but_recovering_run(self):
        system = build_system()
        system.network.link("phb", "shb").drop_probability = 0.1
        system.subscribe("c", "shb", ("P0",))
        publisher = system.publisher("P0", rate=100.0)
        publisher.start(at=0.1)
        suite = OracleSuite(system, [publisher])
        suite.install()
        system.scheduler.call_at(2.0, publisher.stop)
        system.run_until(8.0)  # raises OracleFailure on violation
        assert suite.final_check([publisher]) == []
        assert suite.sweeps > 10

    def test_install_is_idempotent(self):
        system = build_system()
        suite = OracleSuite(system)
        suite.install()
        suite.install()
        system.run_until(1.0)
        first = suite.sweeps
        assert first == pytest.approx(1.0 / suite.check_interval, abs=2)


class TestViolationsAreCaught:
    def test_truncation_oracle_fires_when_recovery_is_disabled(self):
        # gct/aet disabled: a dropped message is never re-fetched, but the
        # pubend still consolidates acks over paths that saw only silence
        # and finality — eventually truncating data a subscriber needs.
        system = build_system(gct=float("inf"), aet=float("inf"))
        system.network.link("phb", "shb").drop_probability = 0.25
        system.subscribe("c", "shb", ("P0",))
        publisher = system.publisher("P0", rate=100.0)
        publisher.start(at=0.1)
        suite = OracleSuite(system, [publisher])
        suite.install()
        system.scheduler.call_at(2.0, publisher.stop)
        try:
            system.run_until(8.0)
            failures = suite.final_check([publisher])
        except OracleFailure as exc:
            failures = [exc]
        assert failures, "losses must be caught by at least one oracle"
        assert all(f.oracle in ORACLES for f in failures)

    def test_truncation_oracle_fires_before_the_entry_is_dropped(self):
        # Publish behind a dead link, then forge the downstream ack: the
        # PHB consolidates it and is about to truncate data the subscriber
        # never saw.  The oracle hears ``truncating`` from the hub and
        # must raise while the log still holds the entries.
        system = build_system()
        system.subscribe("c", "shb", ("P0",))
        system.fail_link("phb", "shb")
        publisher = system.publisher("P0", rate=100.0, max_messages=5)
        publisher.start(at=0.1)
        OracleSuite(system, [publisher], check_interval=60.0).install()
        system.run_until(1.0)
        engine = system.brokers["phb"].engine
        pubend = engine.pubends["P0"]
        ticks = [tick for (__, tick, ___) in publisher.published]
        assert len(ticks) == 5 and pubend.acked_up_to <= ticks[0]
        engine.ostreams["P0"]["SHB"].stream.set_ack(TickRange(0, ticks[-1] + 1))
        with pytest.raises(OracleFailure) as caught:
            engine.consolidate_ack("P0")
        assert caught.value.oracle == "truncation-safety"
        assert "(hook," in caught.value.message
        assert caught.value.subject == ("P0", ticks[0])
        assert [e.tick for e in pubend.log.entries("P0")] == ticks
        assert pubend.acked_up_to <= ticks[0]

    def test_horizon_oracle_survives_an_shb_restart(self):
        # A restarted SHB starts a fresh subend whose horizon begins below
        # where the crashed incarnation's ended; that is not a rewind.
        system = build_system()
        system.subscribe("c", "shb", ("P0",))
        publisher = system.publisher("P0", rate=100.0)
        publisher.start(at=0.1)
        # The truncation oracle's ground truth cannot express a late
        # joiner (c2 below is owed nothing published before it joined),
        # so it is given a publisher that never publishes.
        suite = OracleSuite(system, [system.publisher("P0", rate=1.0)])
        suite.install()
        system.scheduler.call_at(1.0, lambda: system.crash_broker("shb"))
        system.scheduler.call_at(1.5, lambda: system.restart_broker("shb"))
        system.scheduler.call_at(1.5, lambda: system.subscribe("c2", "shb", ("P0",)))
        system.scheduler.call_at(2.5, publisher.stop)
        before_crash = {}
        system.scheduler.call_at(
            0.99, lambda: before_crash.update(suite._sub_horizons["shb"])
        )
        system.run_until(6.0)  # raises OracleFailure on violation
        assert system.subscribers["c2"].count() > 0
        assert suite._sub_horizons["shb"]["P0"] > before_crash["P0"] > 0
        # Within one incarnation a rewind is still caught ...
        hub = system.obs.lifecycle
        horizon = suite._sub_horizons["shb"]["P0"]
        with pytest.raises(OracleFailure) as caught:
            hub.horizon_advanced(system.now, "shb", "P0", horizon, horizon - 1)
        assert caught.value.oracle == "subend-horizon-monotonic"
        # ... and only that node's crash resets the watermark.
        hub.fault(system.now, "crash", "phb")
        assert suite._sub_horizons["shb"]["P0"] == horizon
        hub.fault(system.now, "crash", "shb")
        hub.horizon_advanced(system.now, "shb", "P0", 0, 10)

    def _quiescent_run(self):
        """Publish, drain until the PHB log is empty; the suite only
        sweeps when the test says so."""
        system = build_system()
        system.subscribe("c", "shb", ("P0",))
        publisher = system.publisher("P0", rate=100.0, max_messages=50)
        publisher.start(at=0.1)
        suite = OracleSuite(system, [publisher], check_interval=60.0)
        suite.install()
        system.run_until(5.0)
        pubend = system.brokers["phb"].engine.pubends["P0"]
        assert len(publisher.published) == 50 and pubend.log.entries("P0") == []
        return system, suite

    def test_soft_state_size_oracle_is_quiet_on_a_drained_run(self):
        system, suite = self._quiescent_run()
        suite.sweep()
        knowledge = system.brokers["shb"].engine.istreams["P0"].stream.knowledge
        assert knowledge.d_tick_count() == 0
        assert knowledge.run_count() == 1 + len(knowledge.gaps())

    def test_soft_state_size_oracle_catches_a_leaking_front_trim(self, monkeypatch):
        # Mutant: advancing the final prefix forgets to drop the payloads
        # of the D runs it swallows — soft state grows with history.
        original = KnowledgeStream.accumulate_final

        def leaky(self, rng):
            if self._fin < rng.stop and rng.start <= self._fin:
                self._fin, __ = self._map.set_prefix(rng.stop, K.F)
                return True
            return original(self, rng)

        monkeypatch.setattr(KnowledgeStream, "accumulate_final", leaky)
        __, suite = self._quiescent_run()
        with pytest.raises(OracleFailure) as caught:
            suite._check_soft_state_size()
        assert caught.value.oracle == "soft-state-size"
        assert "every log entry is acked" in caught.value.message
        with pytest.raises(OracleFailure):
            suite.sweep()

    def _outage_run(self):
        """A 3 s phb-shb outage: the gap it leaves spans six nack pieces."""
        system = build_system()
        system.subscribe("c", "shb", ("P0",))
        publisher = system.publisher("P0", rate=100.0)
        publisher.start(at=0.1)
        suite = OracleSuite(system, [publisher])
        suite.install()
        system.scheduler.call_at(0.5, lambda: system.fail_link("phb", "shb"))
        system.scheduler.call_at(3.5, lambda: system.recover_link("phb", "shb"))
        system.scheduler.call_at(5.0, publisher.stop)
        system.run_until(8.0)  # raises OracleFailure on violation
        return suite, publisher

    def test_soft_state_size_oracle_catches_a_timer_per_nack_piece(self, monkeypatch):
        suite, publisher = self._outage_run()  # one timer per pubend: quiet
        assert suite.final_check([publisher]) == []
        # Mutant: every nack piece arms a repetition timer of its own, so
        # live timers grow with a gap's length over nack_chop.
        original = SubendManager._send_nack

        def per_piece(self, state, piece, attempt):
            original(self, state, piece, attempt)
            self.services.schedule(state.estimator.interval(), lambda: None)

        monkeypatch.setattr(SubendManager, "_send_nack", per_piece)
        with pytest.raises(OracleFailure) as caught:
            self._outage_run()
        assert caught.value.oracle == "soft-state-size"
        assert "lasting timers" in caught.value.message

    def test_final_check_reports_missing_deliveries(self):
        system = build_system()
        client = system.subscribe("c", "shb", ("P0",))
        publisher = system.publisher("P0", rate=50.0)
        publisher.start(at=0.1)
        suite = OracleSuite(system, [publisher])
        system.scheduler.call_at(1.0, publisher.stop)
        system.run_until(4.0)
        # Forge a loss: drop one delivered record from the client's view.
        assert client.received
        pubend, tick, _, __ = client.received[0]
        client.received.pop(0)
        client._seen.discard((pubend, tick))
        failures = suite.final_check([publisher])
        assert any(f.oracle == "exactly-once" for f in failures)

    def test_oracle_failure_is_an_assertion_error(self):
        failure = OracleFailure("exactly-once", "boom")
        assert isinstance(failure, AssertionError)
        assert failure.oracle == "exactly-once"
        assert "[exactly-once]" in str(failure)


class TestOracleNames:
    def test_oracle_registry_is_complete(self):
        assert set(ORACLES) == {
            "delivery-safety",
            "knowledge-monotonic",
            "subend-horizon-monotonic",
            "truncation-safety",
            "stream-invariants",
            "soft-state-size",
            "exactly-once",
            "total-order",
        }
