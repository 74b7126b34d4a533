"""Tests of the span recorder.  Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/load/test_trace.py -q
"""

from __future__ import annotations

import json

from repro.core.intervals import IntervalMap
from repro.core.ticks import TickRange

from . import ledger
from .trace import Recorder
from .workloads import Context, sim_chain


class FakeClock:
    """A clock the test advances by hand, in nanoseconds."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class Tree:
    """A synthetic call tree: outer -> (inner, inner), each burning a
    known amount of fake time."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self) -> str:
        self.clock.now += 10
        self.inner(5)
        self.clock.now += 20
        self.inner(7)
        self.clock.now += 30
        return "done"

    def inner(self, cost: int) -> None:
        self.clock.now += cost


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    with Recorder(clock=clock) as rec:
        rec.wrap(Tree, "outer", "layer:outer")
        rec.wrap(Tree, "inner", "layer:inner")
        assert Tree(clock).outer() == "done"
    outer, inner = rec.totals["layer:outer"], rec.totals["layer:inner"]
    assert (outer.calls, outer.total_ns, outer.self_ns) == (1, 72, 60)
    assert (inner.calls, inner.total_ns, inner.self_ns) == (2, 12, 12)
    spans = list(rec.spans())
    assert [(name, end - start, parent) for name, start, end, parent, __ in spans] == [
        ("layer:outer", 72, -1),
        ("layer:inner", 5, 0),
        ("layer:inner", 7, 0),
    ]
    # Self time over all names counts each traced nanosecond once.
    assert outer.self_ns + inner.self_ns == outer.total_ns


def test_tags_snapshots_and_chrome_trace(tmp_path):
    clock = FakeClock()
    with Recorder(clock=clock) as rec:
        rec.wrap(Tree, "inner", "layer:inner", tag_of=lambda args, __: ("P0", args[1]))
        tree = Tree(clock)
        tree.inner(3)
        before = rec.snapshot()
        tree.inner(4)
        delta = rec.snapshot() - before
    assert (delta.calls("layer:"), delta.self_us("layer:inner"), delta.spans) == (1, 0.004, 1)
    assert [tag for *__, tag in rec.spans()] == [("P0", 3), ("P0", 4)]
    path = tmp_path / "trace.json"
    rec.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["dur"] for e in events] == [0.003, 0.004]
    assert events[1]["args"] == {"parent": -1, "tag": ["P0", 4]}


def test_wrappers_restore_the_originals():
    originals = {
        (owner, name): vars(owner)[name]
        for owner, name in [
            (IntervalMap, "ranges_with"),
            (IntervalMap, "iter_runs"),
            (ledger.GDBrokerEngine, "on_message"),
            (ledger.aio_transport, "encode_batch_frame"),
            (ledger.aio_runtime.AioBroker, "on_receive"),
        ]
    }
    never_traced = sim_chain(Context(seed=3, window_s=1.0, work_dir="")).counts
    with Recorder() as rec:
        ledger.install(rec, ledger.Probe())
        assert all(vars(owner)[name] is not fn for (owner, name), fn in originals.items())
        traced = sim_chain(Context(seed=3, window_s=1.0, work_dir="")).counts
        assert rec.span_count > 0
    assert all(vars(owner)[name] is fn for (owner, name), fn in originals.items())
    spans_after_exit = rec.span_count
    untraced_again = sim_chain(Context(seed=3, window_s=1.0, work_dir="")).counts
    # Wrappers neither change what the program does nor outlive the block.
    assert never_traced == traced == untraced_again
    assert rec.span_count == spans_after_exit


def test_generator_wrapper_counts_yields_without_changing_results():
    runs = IntervalMap("q")
    for start in range(0, 40, 4):
        runs.set_range(TickRange(start, start + 2), "d")
    plain = list(runs.iter_runs(1, 30))
    first_plain = runs.first_with(lambda v: v == "d", 9)
    with Recorder() as rec:
        rec.wrap_generator(IntervalMap, "iter_runs", "core.intervals:iter_runs")
        assert list(runs.iter_runs(1, 30)) == plain
        assert rec.counts["core.intervals:iter_runs.yields"] == len(plain)
        # A consumer that stops early (first_with returns from inside its
        # loop) still has its yields counted.
        assert runs.first_with(lambda v: v == "d", 9) == first_plain
        assert rec.counts["core.intervals:iter_runs.calls"] == 2
        assert rec.counts["core.intervals:iter_runs.yields"] > len(plain)
    assert list(runs.iter_runs(1, 30)) == plain


def test_timed_generator_charges_only_its_own_body():
    clock = FakeClock()

    class Source:
        def items(self):
            for cost in (3, 4):
                clock.now += cost  # the generator's own work
                yield cost

    with Recorder(clock=clock) as rec:
        rec.wrap_generator(Source, "items", "layer:items", timed=True)
        seen = []
        for item in Source().items():
            clock.now += 100  # the consumer's work, not the generator's
            seen.append(item)
    assert seen == [3, 4]
    assert rec.totals["layer:items"].self_ns == 7


def test_layer_self_time_and_other_add_up_to_process_cpu():
    probe = ledger.Probe()
    with Recorder() as rec:
        ledger.install(rec, probe)
        ctx = Context(seed=5, window_s=2.0, work_dir="", rec=rec, probe=probe)
        result = sim_chain(ctx)
    assert result.verdict.failed == 0
    # Nothing is double counted: self time over all names equals the
    # time covered by root spans.
    roots = sum(end - start for __, start, end, parent, ___ in rec.spans() if parent == -1)
    assert sum(t.self_ns for t in rec.totals.values()) == roots
    # The ledger's split of the window's CPU: layers + "other" = measured.
    accounting = ctx.accounting
    other_us = result.layers["loop.other_us_per_pub"] * accounting["pubs"]
    assert abs(accounting["layer_cpu_us"] + other_us - accounting["cpu_us"]) <= (
        0.02 * accounting["cpu_us"]
    )
    # Spans are wall time and CPU is CPU: on a quiet machine the layers
    # cover most of the window and never much more than all of it.
    share = accounting["layer_cpu_us"] / accounting["cpu_us"]
    assert 0.3 < share < 1.1
