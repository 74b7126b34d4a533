"""Unit tests for crash/restart-aware simulated processes."""

from repro.sim.network import SimNetwork
from repro.sim.process import SimProcess
from repro.sim.scheduler import Scheduler


class Probe(SimProcess):
    def __init__(self, node_id, network, scheduler):
        super().__init__(node_id, network, scheduler)
        self.messages = []
        self.crashes = 0
        self.restarts = 0

    def on_message(self, src, message):
        self.messages.append((src, message))

    def on_crash(self):
        self.crashes += 1

    def on_restart(self):
        self.restarts += 1


def make():
    scheduler = Scheduler()
    net = SimNetwork(scheduler)
    a = Probe("a", net, scheduler)
    b = Probe("b", net, scheduler)
    net.add_node(a)
    net.add_node(b)
    net.connect("a", "b", latency=0.001)
    return scheduler, net, a, b


class TestLifecycle:
    def test_crash_calls_hook_once(self):
        __, __, a, __b = make()
        a.crash()
        a.crash()
        assert a.crashes == 1
        assert not a.alive

    def test_restart_calls_hook(self):
        __, __, a, __b = make()
        a.crash()
        a.restart()
        assert a.restarts == 1
        assert a.alive

    def test_restart_when_alive_is_noop(self):
        __, __, a, __b = make()
        a.restart()
        assert a.restarts == 0

    def test_crashed_process_ignores_messages(self):
        scheduler, net, a, b = make()
        b.crash()
        a.send("b", "x")
        scheduler.run()
        assert b.messages == []

    def test_crashed_process_cannot_send(self):
        scheduler, __, a, b = make()
        a.crash()
        assert not a.send("b", "x")


class TestEpochTimers:
    def test_timer_from_old_epoch_never_fires(self):
        scheduler, __, a, __b = make()
        fired = []
        a.schedule(1.0, lambda: fired.append("old"))
        a.crash()
        a.restart()
        a.schedule(1.0, lambda: fired.append("new"))
        scheduler.run()
        assert fired == ["new"]

    def test_timer_suppressed_while_crashed(self):
        scheduler, __, a, __b = make()
        fired = []
        a.schedule(1.0, lambda: fired.append("x"))
        a.crash()
        scheduler.run()
        assert fired == []

    def test_every_stops_on_crash(self):
        scheduler, __, a, __b = make()
        ticks = []
        a.every(1.0, lambda: ticks.append(a.now()))
        scheduler.run_until(3.5)
        assert len(ticks) == 3
        a.crash()
        scheduler.run_until(10.0)
        assert len(ticks) == 3

    def test_crash_cancels_pending_timers_in_scheduler(self):
        # Epoch gating alone would leave the dead timers in the heap as
        # counted no-ops; crash() must *cancel* them so events_run stays
        # a crash-timing-independent work metric.
        scheduler, __, a, __b = make()
        for i in range(10):
            a.schedule(1.0 + i, lambda: None)
        a.crash()
        scheduler.run()
        assert scheduler.events_run == 0
        assert not a._pending_timers

    def test_fired_timers_leave_tracking_set(self):
        scheduler, __, a, __b = make()
        a.schedule(1.0, lambda: None)
        a.schedule(2.0, lambda: None)
        scheduler.run()
        assert not a._pending_timers

    def test_externally_cancelled_timers_are_pruned(self):
        # Handles cancelled through cancel() (not via crash) leave the
        # tracking set at once: it never accumulates them.
        scheduler, __, a, __b = make()
        for __i in range(266):
            a.schedule(1.0, lambda: None).cancel()
        assert not a._pending_timers
        scheduler.run()
        assert scheduler.events_run == 0

    def test_live_timers_are_not_rebuilt_on_every_schedule(self):
        # Arming is O(1) however many timers are live: the tracking set
        # is the same object throughout (no sweep rebuilds it) and holds
        # exactly the pending handles.
        scheduler, __, a, __b = make()
        tracking = a._pending_timers
        rebuilds = 0
        handles = []
        for i in range(2000):
            handles.append(a.schedule(1.0 + i, lambda: None))
            if a._pending_timers is not tracking:
                rebuilds += 1
                tracking = a._pending_timers
        assert rebuilds == 0
        assert a._pending_timers == set(handles)
        for handle in handles[::2]:
            handle.cancel()
        assert a._pending_timers == set(handles[1::2])
        a.crash()
        assert not a._pending_timers
        assert all(handle.cancelled for handle in handles)
        scheduler.run()
        assert scheduler.events_run == 0

    def test_restart_after_crash_tracks_fresh_timers(self):
        scheduler, __, a, __b = make()
        fired = []
        a.schedule(1.0, lambda: fired.append("old"))
        a.crash()
        a.restart()
        a.schedule(2.0, lambda: fired.append("new"))
        scheduler.run()
        assert fired == ["new"]
        assert scheduler.events_run == 1
        assert not a._pending_timers

    def test_every_restarts_independently(self):
        scheduler, __, a, __b = make()
        ticks = []
        a.every(1.0, lambda: ticks.append("first"))
        scheduler.run_until(1.5)
        a.crash()
        a.restart()
        a.every(1.0, lambda: ticks.append("second"))
        scheduler.run_until(4.6)
        assert ticks.count("first") == 1
        assert ticks.count("second") == 3
