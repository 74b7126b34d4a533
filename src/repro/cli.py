"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro fig6                  # Figure 6 link-failure dynamics
    python -m repro fig7 --seed 11        # Figure 7 with a different seed
    python -m repro overhead --subs 100 400 --rate 200
    python -m repro quickcheck            # fast end-to-end sanity run
    python -m repro stats --topology figure3 --duration 5   # metrics snapshot
    python -m repro trace --drop 0.1 --chrome out.json    # causal spans + Perfetto
    python -m repro fuzz --seed 7 --runs 50 --shrink      # oracle fuzzing
    python -m repro replay tests/corpus/*.json            # corpus replay
    python -m repro chaos --runs 3                        # real-time fault drill

Each experiment prints the same rows/series the corresponding benchmark
asserts on (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .check.runner import DEFAULT_TIME_SCALE
from .experiments.fig45 import run_overhead_sweep
from .experiments.fig678 import run_fault_experiment

__all__ = ["main"]


def _cmd_fault(args: argparse.Namespace) -> int:
    fault = {"fig6": "link_b1_s1", "fig7": "crash_b1", "fig8": "crash_p1"}[args.command]
    result = run_fault_experiment(fault, seed=args.seed)
    if args.dump:
        from .analysis import cumulative, write_series_csv

        series = {
            f"latency:{sub}": points for sub, points in result.latency.items()
        }
        series.update(
            {f"nack_range:{node}": cumulative(points)
             for node, points in result.nacks.items()}
        )
        with open(args.dump, "w", encoding="utf-8", newline="") as fh:
            rows = write_series_csv(fh, series)
        print(f"wrote {rows} rows to {args.dump}")
    print(f"fault experiment: {fault} (seed {args.seed})")
    for line in result.fault_log:
        print(f"  {line}")
    print()
    print(f"{'subscriber':>10} {'delivered':>10} {'expected':>9} "
          f"{'exactly once':>13} {'peak lat (s)':>13}")
    for sub in sorted(result.latency):
        delivered, expected = result.counts[sub]
        print(
            f"{sub:>10} {delivered:>10} {expected:>9} "
            f"{str(result.exactly_once[sub]):>13} "
            f"{result.max_latency(sub):>13.2f}"
        )
    print()
    if result.nacks:
        print(f"{'node':>6} {'nack msgs':>10} {'nack range (ms)':>16}")
        for node in sorted(result.nacks):
            print(
                f"{node:>6} {result.nack_count(node):>10} "
                f"{result.nack_range_total(node):>16.0f}"
            )
    else:
        print("no nacks were needed")
    return 0 if result.all_exactly_once() else 1


def _cmd_overhead(args: argparse.Namespace) -> int:
    points = run_overhead_sweep(
        args.subs,
        input_rate=args.rate,
        warmup=args.warmup,
        measure=args.measure,
    )
    print(
        f"{'protocol':>11} {'N':>6} {'SHB CPU':>8} {'PHB CPU':>8} "
        f"{'local ms':>9} {'remote ms':>10}"
    )
    for point in points:
        print(
            f"{point.protocol:>11} {point.n_subscribers:>6} "
            f"{100 * point.shb_cpu:>7.2f}% {100 * point.phb_cpu:>7.2f}% "
            f"{point.local_median_ms:>9.1f} {point.remote_median_ms:>10.1f}"
        )
    return 0


def _cmd_quickcheck(args: argparse.Namespace) -> int:
    from .check import PublisherSpec, Scenario, SubscriberSpec, run_scenario

    result = run_scenario(
        Scenario(
            seed=args.seed,
            topology="two_broker",
            pubends=("P0",),
            publishers=(PublisherSpec("P0", rate=100.0),),
            subscribers=(SubscriberSpec("check", "shb", ("P0",)),),
            drop_probability=0.1,
            publish_until=3.0,
            drain_until=10.0,
        )
    )
    print(
        f"published {result.published}, delivered {result.delivered}, "
        f"exactly once: {result.ok} "
        f"(10% of messages were dropped on the wire)"
    )
    for line in result.failures:
        print(f"  {line}")
    return 0 if result.ok else 1


def _stats_system(args: argparse.Namespace):
    from .core.config import LivenessParams
    from .topology import balanced_pubend_names, figure3_topology, two_broker_topology

    params = LivenessParams(gct=0.1, nrt_min=0.3)
    if args.topology == "figure3":
        names = balanced_pubend_names(4)
        system = figure3_topology(pubend_names=names).build(
            seed=args.seed, params=params
        )
        for i in range(1, 6):
            system.subscribe(f"sub{i}", f"s{i}", tuple(names))
        rate = 25.0
    else:
        names = ["P0"]
        topo = two_broker_topology()
        topo.pubend("P0", "phb")
        topo.route("P0", "PHB", "SHB")
        system = topo.build(seed=args.seed, params=params)
        system.subscribe("sub1", "shb", ("P0",))
        rate = 50.0
    if args.drop:
        for link in system.network.links_of("p1" if args.topology == "figure3" else "phb"):
            link.drop_probability = args.drop
    for name in names:
        system.publisher(name, rate=rate).start(at=0.1)
    return system


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs.causal import CausalTracer
    from .obs.detectors import DetectorSet

    system = _stats_system(args)
    # Snapshots include the causal/detector gauge families, so the
    # exported schema matches what `repro trace` reports on.
    CausalTracer(system).install()
    DetectorSet(system).install()
    system.run_for(args.duration)
    if args.format == "json":
        system.obs.json_lines(sys.stdout)
    else:
        sys.stdout.write(system.obs.prometheus())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.attribution import build_report
    from .obs.causal import CausalTracer
    from .obs.detectors import DetectorSet

    system = _stats_system(args)
    tracer = CausalTracer(system).install()
    detectors = DetectorSet(system).install()
    system.run_for(args.duration)

    report = build_report(tracer)
    sys.stdout.write(report.format(top=args.top))
    bad = [b for b in report.breakdowns if not b.check_sum(1e-9)]
    if bad:
        print(f"WARNING: {len(bad)} breakdown(s) do not sum to their total")
    if detectors.findings:
        print(f"\n{len(detectors.findings)} anomaly finding(s):")
        for finding in detectors.findings:
            print(f"  {finding.render()}")

    if args.chrome:
        count = tracer.export_chrome(args.chrome)
        print(f"\nwrote {count} trace events to {args.chrome} "
              f"(open in Perfetto / chrome://tracing)")

    if args.timeline:
        pubend, _, tick_text = args.timeline.rpartition(":")
        if not pubend:
            print(f"--timeline wants PUBEND:TICK, got {args.timeline!r}",
                  file=sys.stderr)
            return 2
        print()
        sys.stdout.write(tracer.render_timeline(pubend, int(tick_text)))
    return 1 if bad else 0


def _campaign_options(args: argparse.Namespace) -> dict:
    """The flags :func:`_add_campaign_flags` declares, as
    :func:`repro.check.runner.campaign` keywords."""
    return dict(
        time_budget=args.time_budget,
        shrink=args.shrink,
        repro_dir=args.repro_dir,
        keep_going=args.keep_going,
        progress=print,
    )


def _campaign_status(name: str, report) -> int:
    print(
        f"{name}: {report.runs} scenario(s), {len(report.failures)} failure(s), "
        f"{report.elapsed:.1f}s wall (base seed {report.base_seed}): "
        f"{'PASS' if report.ok else 'FAIL'}"
    )
    for path in report.repro_paths:
        print(f"repro: {path}")
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .check import fuzz, run_seed, scenario_seed

    if args.verify_deterministic:
        seed = scenario_seed(args.seed, 0)
        first, second = run_seed(seed), run_seed(seed)
        same = first.digest == second.digest
        print(f"seed {seed}: digest {first.digest[:16]}... "
              f"{'reproducible' if same else 'DIVERGED'}")
        if not same:
            return 1

    report = fuzz(
        args.seed,
        args.runs,
        flush_delay=args.flush_delay,
        **_campaign_options(args),
    )
    return _campaign_status("fuzz", report)


def _cmd_replay(args: argparse.Namespace) -> int:
    from .check import load_repro, replay

    status = 0
    for path in args.repro:
        judge = load_repro(path)[2]
        result, expect = replay(path, flush_delay=args.flush_delay)
        verdict = "pass" if result.ok else "fail"
        agree = verdict == expect
        print(f"{path}: {judge} expected {expect}, got {verdict} "
              f"{'OK' if agree else 'MISMATCH'}")
        print(f"  {result.summary()}")
        for line in result.failures:
            print(f"  {line}")
        if not agree:
            status = 1
    return status


def _cmd_conform(args: argparse.Namespace) -> int:
    from functools import partial

    from .check import conform, run_conformance

    run_fn = partial(
        run_conformance,
        time_scale=args.time_scale,
        transport=args.transport,
        mutations=tuple(args.mutate or ()),
        corrupt_rate=args.corrupt_rate,
    )
    report = conform(args.seed, args.runs, run_fn, **_campaign_options(args))
    return _campaign_status("conform", report)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import main as bench_main

    return bench_main(args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .aio.chaos import chaos

    report = chaos(
        args.seed,
        args.runs,
        duration=args.duration,
        transport=args.transport,
        data_dir=args.data_dir,
        settle=args.settle,
        corrupt_rate=args.corrupt_rate,
        min_published=args.min_published,
        keep_going=True,
        progress=print,
    )
    return _campaign_status("chaos", report)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from types import SimpleNamespace

    from .aio.chaos import FAST_PARAMS, chain_topology
    from .aio.runtime import AioSystem
    from .aio.transport import TcpTransport
    from .client import DeliveryChecker

    async def serve() -> int:
        system = AioSystem(
            chain_topology(),
            params=FAST_PARAMS,
            transport=TcpTransport(seed=args.seed),
            data_dir=args.data_dir,
        )
        await system.start()
        for broker_id, (host, port) in sorted(system.transport.addresses.items()):
            print(f"broker {broker_id} listening on {host}:{port}")
        client = system.subscribe("demo", "b2", ("P0", "P1"))
        publishers = [
            system.publisher(p, rate=args.rate) for p in ("P0", "P1")
        ]
        # A cold start over a killed run's --data-dir: what the logs still
        # hold was published by that run and is delivered by this one, so
        # it belongs to this run's ground truth.
        inherited = []
        for publisher in publishers:
            pubend = publisher.pubend
            log = system.brokers[system.pubend_hosts[pubend]].hosted_logs()[pubend]
            entries = [(None, e.tick, e.payload) for e in log.entries(pubend)]
            print(f"pubend {pubend}: replayed {len(entries)} logged publications")
            inherited.append(SimpleNamespace(pubend=pubend, published=entries))
        for publisher in publishers:
            publisher.start()
        remaining = args.duration
        while remaining > 0:
            step = min(1.0, remaining)
            remaining -= await system.run_for(step)
            print(
                f"published {sum(len(p.published) for p in publishers):>6} "
                f"delivered {len(client.received):>6}"
            )
        for publisher in publishers:
            await publisher.stop()
        await system.run_for(args.settle)
        report = DeliveryChecker(publishers + inherited).check(
            client, system.subscriptions["demo"]
        )
        await system.shutdown()
        print(
            f"final: published {report.matching_published}, delivered "
            f"{report.delivered}, exactly once: {report.exactly_once}"
        )
        return 0 if report.exactly_once else 1

    return asyncio.run(serve())


def _add_campaign_flags(p: argparse.ArgumentParser, runs: int) -> None:
    """The flags every shrinking campaign takes (see ``campaign``)."""
    p.add_argument("--seed", type=int, default=0, help="base campaign seed")
    p.add_argument("--runs", type=int, default=runs, help="scenarios to run")
    p.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new scenarios after this much wall time",
    )
    p.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="minimize failures before writing repro files",
    )
    p.add_argument(
        "--repro-dir", default=".",
        help="directory for repro files of shrunk failures",
    )
    p.add_argument(
        "--keep-going", action="store_true",
        help="continue the campaign after a failure instead of stopping",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gryphon guaranteed-delivery reproduction — experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fig6", "Figure 6: b1-s1 link failure dynamics"),
        ("fig7", "Figure 7: intermediate broker crash"),
        ("fig8", "Figure 8: publisher-hosting broker crash"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--dump", metavar="CSV",
            help="write latency and cumulative-nack series as long-form CSV",
        )
        p.set_defaults(fn=_cmd_fault)

    p = sub.add_parser("overhead", help="Figures 4-5: GD vs best-effort sweep")
    p.add_argument("--subs", type=int, nargs="+", default=[100, 400, 1600])
    p.add_argument("--rate", type=float, default=200.0)
    p.add_argument("--warmup", type=float, default=1.5)
    p.add_argument("--measure", type=float, default=6.0)
    p.set_defaults(fn=_cmd_overhead)

    p = sub.add_parser("quickcheck", help="fast exactly-once sanity run")
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(fn=_cmd_quickcheck)

    p = sub.add_parser(
        "stats",
        help="run a canned workload and print an observability snapshot",
    )
    p.add_argument(
        "--topology", choices=("figure3", "two_broker"), default="figure3"
    )
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--drop", type=float, default=0.0,
        help="drop probability on the PHB's links (exercises nack metrics)",
    )
    p.add_argument("--format", choices=("prometheus", "json"), default="prometheus")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "trace",
        help="run a canned workload under the causal tracer and print the "
        "latency-attribution report (docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--topology", choices=("figure3", "two_broker"), default="two_broker"
    )
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--drop", type=float, default=0.0,
        help="drop probability on the PHB's links (exercises retransmit_wait)",
    )
    p.add_argument(
        "--chrome", metavar="OUT",
        help="write the span store as Chrome trace-event JSON for Perfetto",
    )
    p.add_argument(
        "--timeline", metavar="PUBEND:TICK",
        help="print the causal span timeline of one publication identity",
    )
    p.add_argument(
        "--top", type=int, default=5,
        help="also list the N slowest deliveries with their dominant component",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "fuzz",
        help="deterministic fault-schedule fuzzing under the exactly-once "
        "oracle suite (see docs/FUZZING.md)",
    )
    _add_campaign_flags(p, runs=50)
    p.add_argument(
        "--verify-deterministic", action="store_true",
        help="run the first scenario twice and compare digests before fuzzing",
    )
    p.add_argument(
        "--flush-delay", type=float, default=None, metavar="SECONDS",
        help="force batched knowledge propagation on every generated "
        "scenario (proves the oracles hold with flush_delay > 0)",
    )
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "replay",
        help="replay repro files (tests/corpus/**/*.json, or what a failing "
        "fuzz, conform or chaos run wrote) under the judge each names",
    )
    p.add_argument("repro", nargs="+", help="repro JSON files to replay")
    p.add_argument(
        "--flush-delay", type=float, default=None, metavar="SECONDS",
        help="override the scenarios' knowledge-batching knob before replay",
    )
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser(
        "conform",
        help="differential sim vs asyncio conformance runs: one seeded "
        "scenario executed on both backends and cross-checked "
        "(docs/TESTING.md)",
    )
    _add_campaign_flags(p, runs=25)
    p.add_argument(
        "--transport", choices=("local", "tcp"), default="local",
        help="asyncio transport (tcp strips wire-loss pathologies: a "
        "reliable stream cannot drop frames)",
    )
    p.add_argument(
        "--time-scale", type=float, default=DEFAULT_TIME_SCALE,
        help="wall-clock seconds per simulated second for the asyncio leg",
    )
    p.add_argument(
        "--mutate", action="append", metavar="MUTATION", default=None,
        help="run the asyncio leg with a deliberate protocol defect "
        "(e.g. suppress-retransmit) — the harness must report divergence",
    )
    p.add_argument(
        "--corrupt-rate", type=float, default=0.0, metavar="PROBABILITY",
        help="ambient per-message frame-corruption probability on the "
        "asyncio leg's local transport (checksum rejects must heal "
        "invisibly; ignored for tcp)",
    )
    p.set_defaults(fn=_cmd_conform)

    p = sub.add_parser(
        "bench",
        help="deterministic hot-path benchmarks; emits BENCH_4.json and "
        "gates CI on operation-counter regressions (docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full benchmark report (e.g. BENCH_4.json)",
    )
    p.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="fail (exit 1) on >tolerance regression of any deterministic "
        "counter vs this committed baseline",
    )
    p.add_argument(
        "--write-baseline", metavar="PATH", default=None,
        help="write the current deterministic counters as the new baseline",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed fractional counter growth for --check (default 0.05)",
    )
    p.add_argument(
        "--repeat", type=int, default=3,
        help="wall-clock repetitions per benchmark (best-of)",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "chaos",
        help="seeded real-time chaos runs against the asyncio runtime "
        "(FileLog durability over TCP; see docs/DEPLOYMENT.md)",
    )
    p.add_argument("--seed", type=int, default=0, help="base schedule seed")
    p.add_argument(
        "--runs", type=int, default=1,
        help="consecutive seeds to run starting at --seed",
    )
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of live traffic + faults per run")
    p.add_argument("--settle", type=float, default=2.5,
                   help="seconds a run may take to converge after its "
                   "traffic stops before it is judged as it stands")
    p.add_argument("--transport", choices=("tcp", "local"), default="tcp")
    p.add_argument(
        "--data-dir", default=None,
        help="keep every run's pubend logs here, one fresh subdirectory "
        "per run (default: a temporary directory per run)",
    )
    p.add_argument(
        "--min-published", type=int, default=20,
        help="fail a run that carried fewer publications than this",
    )
    p.add_argument(
        "--corrupt-rate", type=float, default=0.0, metavar="PROBABILITY",
        help="per-kind probability of scheduling corruption faults "
        "(log bit-flips, wire frame damage, disk-full) into the chaos "
        "schedule; 1.0 schedules all three every run",
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="demo deployment: the b0-b1-b2 chain over real TCP with "
        "durable pubend logs, printing live delivery counts",
    )
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--settle", type=float, default=2.0,
                   help="drain window after publishers stop")
    p.add_argument("--rate", type=float, default=40.0,
                   help="per-pubend publication rate (msgs/s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--data-dir", default=None,
        help="pubend log directory (default: in-memory logs)",
    )
    p.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
