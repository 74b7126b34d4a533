"""Online anomaly detectors (repro.obs.detectors).

Each detector is exercised by constructing the pathology it watches
for: a permanent link failure stalls a subend's doubt horizon, heavy
loss drives the fleet retransmission rate over a low threshold, and a
sabotaged pubend (lazy silence disabled) violates the silence contract.
"""

from repro.core.config import LivenessParams
from repro.obs.detectors import DetectorSet
from repro.topology import two_broker_topology


def build_system(seed=7, drop=0.0):
    topo = two_broker_topology()
    topo.pubend("P0", "phb")
    topo.route("P0", "PHB", "SHB")
    params = LivenessParams(gct=0.1, nrt_min=0.3)
    system = topo.build(seed=seed, params=params, log_commit_latency=0.01)
    if drop:
        system.network.link("phb", "shb").drop_probability = drop
    return system


def drive(system, until=5.0):
    system.subscribe("a", "shb", ("P0",))
    pub = system.publisher("P0", rate=50.0)
    pub.start(at=0.1)
    system.run_until(1.0)
    pub.stop()
    system.run_until(until)


def findings_by(detectors, name):
    return [f for f in detectors.findings if f.detector == name]


class TestHorizonStall:
    def test_permanent_link_failure_raises_stall(self):
        system = build_system(seed=9, drop=0.2)
        detectors = DetectorSet(
            system, interval=0.1, stall_after=0.5
        ).install()
        system.scheduler.call_at(0.6, lambda: system.fail_link("phb", "shb"))
        drive(system, until=5.0)
        stalls = findings_by(detectors, "horizon_stall")
        assert stalls, "dead link with in-doubt ticks must raise a stall"
        finding = stalls[0]
        assert finding.node == "shb" and finding.pubend == "P0"
        assert finding.data["istream_max"] > finding.data["horizon"]
        assert finding.data["age"] >= 0.5

    def test_healthy_run_raises_nothing(self):
        system = build_system(seed=7)
        detectors = DetectorSet(
            system, interval=0.1, stall_after=0.5
        ).install()
        drive(system, until=5.0)
        assert not detectors.findings


class TestRetransmissionStorm:
    def test_heavy_loss_trips_low_threshold(self):
        system = build_system(seed=9, drop=0.3)
        detectors = DetectorSet(
            system, interval=0.25, storm_rate=4.0
        ).install()
        drive(system, until=5.0)
        storms = findings_by(detectors, "retransmission_storm")
        assert storms
        assert storms[0].data["rate"] >= 4.0
        # One finding per storm episode, not one per sweep.
        sweeps = int(5.0 / 0.25)
        assert len(storms) < sweeps


class TestSilenceViolation:
    def test_disabled_lazy_silence_is_flagged(self):
        system = build_system(seed=7)
        # Sabotage: the PHB's hosted pubend stops emitting idle silence,
        # exactly the pathology lazy silence exists to prevent.
        pubend = system.brokers["phb"].engine.pubends["P0"]
        pubend.maybe_silence = lambda now: None
        detectors = DetectorSet(
            system, interval=0.1, silence_factor=1.5
        ).install()
        drive(system, until=6.0)
        violations = findings_by(detectors, "silence_violation")
        assert violations
        finding = violations[0]
        assert finding.pubend == "P0" and finding.node == "phb"
        assert finding.data["age"] > finding.data["limit"]


class TestCorruptionStorm:
    def test_burst_of_detected_faults_trips_threshold(self):
        # The detector watches the *detection* counters (quarantines,
        # crc rejects, append errors), not the faults themselves, so a
        # burst is simulated by bumping the counters mid-run the way a
        # FileLog replay or FrameDecoder reject would.
        system = build_system(seed=7)
        detectors = DetectorSet(
            system, interval=0.1, corruption_rate=5.0
        ).install()
        quarantined = system.obs.counter("log_records_quarantined")
        rejected = system.obs.counter("aio_frames_rejected_crc")
        system.scheduler.call_at(0.51, lambda: quarantined.inc(2))
        system.scheduler.call_at(0.52, lambda: rejected.inc(1))
        drive(system, until=5.0)
        storms = findings_by(detectors, "corruption_storm")
        # 3 faults inside one 0.1 s sweep window = 30/s >= 5/s — and one
        # finding for the episode, not one per sweep.
        assert len(storms) == 1
        assert storms[0].data["rate"] >= 5.0
        assert storms[0].data["total"] == 3
        # The gauge decays back to zero once the burst passes.
        gauge = system.obs.gauge("repro_detector_corruption_rate")
        assert gauge.value == 0.0

    def test_slow_trickle_stays_below_threshold(self):
        # One fault per 0.25 s sweep window is 4/s — under the 5/s
        # threshold: isolated healed faults are not a storm.
        system = build_system(seed=7)
        detectors = DetectorSet(
            system, interval=0.25, corruption_rate=5.0
        ).install()
        errors = system.obs.counter("log_append_errors")
        for i in range(4):
            system.scheduler.call_at(0.5 + i, lambda: errors.inc())
        drive(system, until=5.0)
        assert not findings_by(detectors, "corruption_storm")


class TestReadOnly:
    def test_detectors_do_not_change_deliveries(self):
        def deliveries(with_detectors):
            system = build_system(seed=11, drop=0.15)
            if with_detectors:
                DetectorSet(system, interval=0.1, storm_rate=1.0).install()
            client = system.subscribe("a", "shb", ("P0",))
            pub = system.publisher("P0", rate=50.0)
            pub.start(at=0.1)
            system.run_until(1.0)
            pub.stop()
            system.run_until(5.0)
            return [(p, t) for (p, t, __, ___) in client.received]

        assert deliveries(False) == deliveries(True)

    def test_findings_are_counted_into_obs(self):
        system = build_system(seed=9, drop=0.3)
        detectors = DetectorSet(
            system, interval=0.25, storm_rate=4.0
        ).install()
        drive(system, until=5.0)
        assert detectors.findings
        text = system.obs.prometheus()
        assert 'repro_detector_findings_total{detector="retransmission_storm"}' in text
        for line in text.splitlines():
            if line.startswith(
                'repro_detector_findings_total{detector="retransmission_storm"}'
            ):
                assert float(line.rsplit(" ", 1)[1]) >= 1
