"""Deterministic benchmark suite behind ``python -m repro bench``.

Runs the hot-path workloads of ``benchmarks/test_core_microbench.py`` and
``benchmarks/test_matching_engine.py`` as plain functions (no pytest
needed) plus an end-to-end chain-topology batching comparison, and emits
a ``BENCH_4.json`` report with, per benchmark:

* **wall-clock** — informative only; it varies with the machine and is
  never gated on (throughput and latency claims are ``benchmarks/load``'s);
* **deterministic operation counters** — IntervalMap splice, tail-append,
  front-trim and scan-step counts (:data:`repro.core.intervals.STATS`),
  scheduler ``events_run``,
  knowledge messages sent — bit-identical across runs on any machine,
  which is what the CI ``bench-gate`` job diffs against the committed
  baseline (``benchmarks/baseline_counters.json``).

Gate semantics: every counter in the baseline is *more-is-worse*; the
check fails when any counter grows more than ``--tolerance`` (default
5%) over its baseline value.  Counters that shrink (an optimization)
print a hint to refresh the baseline with ``--write-baseline``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["run_benchmarks", "compare_counters", "main"]

#: Report schema tag (the PR number that introduced the file).
BENCH_VERSION = 4


def _timed(fn: Callable[[], Any], repeat: int) -> Tuple[float, Any]:
    """Best-of-``repeat`` wall time and the (last) return value."""
    best = float("inf")
    value: Any = None
    for __ in range(repeat):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _bench_interval_map_appends(repeat: int) -> Dict[str, Any]:
    """The dominant pubend pattern: sequential tail appends (mirrors
    ``test_interval_map_sequential_appends``)."""
    from .core.intervals import STATS, IntervalMap
    from .core.lattice import K
    from .core.ticks import TickRange

    def run() -> int:
        m: IntervalMap = IntervalMap(K.Q)
        for i in range(2000):
            m.set_range(TickRange(i * 10, i * 10 + 10), K.F if i % 2 else K.D)
        return m.run_count()

    STATS.reset()
    wall, __ = _timed(run, repeat)
    snap = STATS.snapshot()
    STATS.reset()
    return {
        "wall_s": wall,
        "counters": {
            "interval_appends_splices": snap["splices"] // repeat,
            "interval_appends_tail": snap["tail_appends"] // repeat,
        },
    }


def _bench_publish_pattern(repeat: int) -> Dict[str, Any]:
    """Bracket-finalize + append-D, the pubend hot loop (mirrors
    ``test_knowledge_stream_publish_pattern``)."""
    from .core.intervals import STATS
    from .core.streams import KnowledgeStream
    from .core.ticks import TickRange

    def run() -> int:
        s = KnowledgeStream()
        tick = 0
        for i in range(2000):
            s.accumulate_final(TickRange(tick, tick + 40))
            tick += 40
            s.accumulate_data(tick, i)
            tick += 1
        return s.d_tick_count()

    STATS.reset()
    wall, count = _timed(run, repeat)
    snap = STATS.snapshot()
    STATS.reset()
    assert count == 2000
    return {
        "wall_s": wall,
        "scan_steps_per_pub": round(snap["scan_steps"] / repeat / count, 2),
        "counters": {
            "publish_pattern_splices": snap["splices"] // repeat,
            "publish_pattern_updates": snap["updates"] // repeat,
            "publish_pattern_scan_steps": snap["scan_steps"] // repeat,
        },
    }


def _build_matcher(matcher_cls: Callable[[], Any]) -> Any:
    from .matching.parser import parse

    matcher = matcher_cls()
    for i in range(2000):
        group = i % 200
        if i % 3 == 0:
            predicate = parse(f"group = {group}")
        elif i % 3 == 1:
            predicate = parse(f"group = {group} and price > {i % 50}")
        else:
            predicate = parse(f"group = {group} and region = 'r{i % 7}'")
        matcher.add(f"s{i}", predicate)
    return matcher


def _bench_matching(repeat: int) -> Dict[str, Any]:
    """Brute force vs counting index on a cyclic event stream (the
    paper's overhead workload publishes from a small group universe).
    Wall-clock only: the row gates nothing beyond the two agreeing."""
    from .matching.engine import BruteForceMatcher, IndexedMatcher
    from .matching.events import Event

    events = [
        Event({"group": i % 200, "price": (i * 13) % 100, "region": f"r{i % 7}"})
        for i in range(1000)
    ]
    brute = _build_matcher(BruteForceMatcher)
    indexed = _build_matcher(IndexedMatcher)

    def match_all(matcher: Any) -> int:
        total = 0
        for event in events:
            total += len(matcher.match(event))
        return total

    wall_brute, total_brute = _timed(lambda: match_all(brute), 1)
    wall_indexed, total_indexed = _timed(lambda: match_all(indexed), repeat)
    assert total_brute == total_indexed, "matchers diverged"
    return {"wall_s": wall_indexed, "wall_brute_s": wall_brute}


def _chain_run(flush_delay: float, causal: bool = False) -> Dict[str, int]:
    """A deterministic PHB -> MID -> SHB chain: 1500 publications, full
    drain, per-run protocol counters."""
    from .core.config import LivenessParams
    from .core.intervals import STATS
    from .topology import Topology

    scan_steps_before = STATS.scan_steps
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
        seed=1,
        params=LivenessParams(flush_delay=flush_delay),
        log_commit_latency=0.0,
    )
    tracer = hooks = None
    if causal:
        from .obs.causal import CausalTracer

        tracer = CausalTracer(system).install()
        hooks = system.obs.lifecycle.attach(_hook_counter())
    subscriber = system.subscribe("sub", "s", ("P0",))
    publisher = system.publisher("P0", rate=500.0)
    publisher.start()
    system.run_until(3.0)
    publisher.stop()
    system.run_for(4.0)
    knowledge_sent = sum(
        broker.engine.counters.get("knowledge_sent", 0)
        for broker in system.brokers.values()
        if getattr(broker, "engine", None) is not None
    )
    published = len(publisher.published)
    delivered = subscriber.count()
    assert delivered == published, "chain run lost or duplicated messages"
    return {
        "knowledge_sent": knowledge_sent,
        "events_run": system.scheduler.events_run,
        "published": published,
        "scan_steps": STATS.scan_steps - scan_steps_before,
        "causal_spans": len(tracer.spans) if tracer is not None else 0,
        "hook_dispatches": hooks.calls if hooks is not None else 0,
    }


def _hook_counter() -> Any:
    """A lifecycle listener that overrides every hook with one counting
    method, so ``calls`` is the number of times anything called the hub."""
    from .obs.lifecycle import HOOKS, LifecycleListener

    def count(self: Any, *args: Any, **kwargs: Any) -> None:
        self.calls += 1

    return type(
        "HookCounter", (LifecycleListener,), {**dict.fromkeys(HOOKS, count), "calls": 0}
    )()


def _bench_chain_batching(repeat: int) -> Dict[str, Any]:
    """End-to-end knowledge-message cost per published event on a chain,
    immediate (flush_delay=0) vs batched (flush_delay=0.05)."""
    wall_imm, immediate = _timed(lambda: _chain_run(0.0), 1)
    wall_bat, batched = _timed(lambda: _chain_run(0.05), 1)
    reduction = (
        immediate["knowledge_sent"] / batched["knowledge_sent"]
        if batched["knowledge_sent"]
        else float("inf")
    )
    return {
        "wall_s": wall_imm,
        "wall_batched_s": wall_bat,
        "published": immediate["published"],
        "knowledge_msgs_per_event_immediate": round(
            immediate["knowledge_sent"] / immediate["published"], 3
        ),
        "knowledge_msgs_per_event_batched": round(
            batched["knowledge_sent"] / batched["published"], 3
        ),
        "batching_reduction": round(reduction, 2),
        "scan_steps_per_event_immediate": round(
            immediate["scan_steps"] / immediate["published"], 2
        ),
        "scan_steps_per_event_batched": round(
            batched["scan_steps"] / batched["published"], 2
        ),
        "counters": {
            "chain_knowledge_sent_immediate": immediate["knowledge_sent"],
            "chain_knowledge_sent_batched": batched["knowledge_sent"],
            "chain_events_run_immediate": immediate["events_run"],
            "chain_events_run_batched": batched["events_run"],
            "chain_scan_steps_immediate": immediate["scan_steps"],
            "chain_scan_steps_batched": batched["scan_steps"],
        },
    }


def _bench_trace_overhead(repeat: int) -> Dict[str, Any]:
    """What full causal tracing does to the end-to-end chain run, in
    quantities that repeat exactly: it schedules nothing (``events_run``
    equal to the plain run), and the spans it records and the hub calls
    it receives are gated like any counter.  What tracing costs in time
    is the load benchmark's to say (``trace.overhead_ratio`` of a
    ``--trace 1`` pass): a wall-clock ratio of two runs on a shared CI
    machine is noise at the few-percent level a gate would need.
    """
    wall_plain, plain = _timed(lambda: _chain_run(0.0), 1)
    wall_traced, traced = _timed(lambda: _chain_run(0.0, causal=True), 1)
    assert traced["events_run"] == plain["events_run"], (
        "causal tracing must not schedule events"
    )
    return {
        "wall_s": wall_plain,
        "wall_traced_s": wall_traced,
        "counters": {
            "trace_causal_spans": traced["causal_spans"],
            "trace_hook_dispatches": traced["hook_dispatches"],
        },
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

BENCHMARKS: Tuple[Tuple[str, Callable[[int], Dict[str, Any]]], ...] = (
    ("interval_map_appends", _bench_interval_map_appends),
    ("knowledge_publish_pattern", _bench_publish_pattern),
    ("matching_engine", _bench_matching),
    ("chain_batching", _bench_chain_batching),
    ("trace_overhead", _bench_trace_overhead),
)


def run_benchmarks(repeat: int = 3) -> Dict[str, Any]:
    """Run every benchmark; returns the full BENCH report object."""
    report: Dict[str, Any] = {
        "bench_version": BENCH_VERSION,
        "repeat": repeat,
        "benchmarks": {},
        "counters": {},
    }
    for name, fn in BENCHMARKS:
        result = fn(repeat)
        report["benchmarks"][name] = result
        for counter, value in result.get("counters", {}).items():
            report["counters"][counter] = value
    report["derived"] = {
        "batching_reduction": report["benchmarks"]["chain_batching"][
            "batching_reduction"
        ],
    }
    return report


def compare_counters(
    current: Dict[str, int],
    baseline: Dict[str, int],
    tolerance: float = 0.05,
) -> List[str]:
    """Regression messages for counters above baseline by > ``tolerance``.

    Every gated counter is more-is-worse.  Counters missing from the
    current run (a renamed or removed benchmark) also fail: the baseline
    must be updated deliberately, never silently skipped.
    """
    problems: List[str] = []
    for counter, expected in sorted(baseline.items()):
        actual = current.get(counter)
        if actual is None:
            problems.append(f"{counter}: missing from current run")
            continue
        if expected == 0:
            if actual > 0:
                problems.append(f"{counter}: {actual} vs baseline 0")
            continue
        ratio = actual / expected
        if ratio > 1.0 + tolerance:
            problems.append(
                f"{counter}: {actual} vs baseline {expected} "
                f"(+{100 * (ratio - 1):.1f}% > {100 * tolerance:.0f}% tolerance)"
            )
    return problems


def main(args: Any) -> int:
    report = run_benchmarks(repeat=args.repeat)

    print(f"{'benchmark':<28} {'wall (ms)':>10}  notes")
    for name, result in report["benchmarks"].items():
        notes = []
        if "batching_reduction" in result:
            notes.append(f"batching reduction {result['batching_reduction']}x")
        print(
            f"{name:<28} {1000 * result['wall_s']:>10.2f}  {', '.join(notes)}"
        )
    print()
    for counter, value in sorted(report["counters"].items()):
        print(f"  {counter} = {value}")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")

    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump(
                {"bench_version": BENCH_VERSION, "counters": report["counters"]},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote baseline {args.write_baseline}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = compare_counters(
            report["counters"], baseline.get("counters", {}), args.tolerance
        )
        if problems:
            print("\nBENCH GATE FAILED:")
            for line in problems:
                print(f"  {line}")
            return 1
        improved = [
            counter
            for counter, expected in baseline.get("counters", {}).items()
            if report["counters"].get(counter, expected) < expected
        ]
        print(f"\nbench gate OK vs {args.check}")
        if improved:
            print(
                "  improved counters (consider --write-baseline): "
                + ", ".join(sorted(improved))
            )
    return 0
