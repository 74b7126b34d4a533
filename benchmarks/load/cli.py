"""Command line of the load benchmark (``run.py`` is its entry script).

Two ways to run:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
  pass of one workload **in this process** and prints, as the last line
  of standard output, one JSON object ``{"correct", "attempted",
  "failed", "metrics"}``: the end-to-end metrics for ``--trace 0``, the
  per-layer metrics for ``--trace 1``.  This is the form BENCHMARK.json
  names.
* ``run.py --seed N [--workload NAME] [--trace] [--json OUT]`` runs each
  workload in a fresh child process of the first form (so peak RSS, GC
  and heap state are per workload), the untraced pass and — with
  ``--trace`` — the traced pass, prints every metric by name with its
  unit, and exits non-zero on any exactly-once violation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import ledger, schema, spec
from .harness import peak_rss_mb
from .trace import Recorder
from .workloads import Context, Result, run_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space inside the checkout (FileLog data, child reports).
SCRATCH = ROOT / ".bench_tmp"

E2E_UNITS = {name: unit for name, unit, __, ___ in spec.END_TO_END}
E2E_UNITS.update({name: unit for name, unit, __, ___ in spec.WORKLOAD_ONLY})
LAYER_UNITS = {name: unit for name, unit, __ in spec.PER_LAYER}


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.DEFAULT_SECONDS),
        help="measured window of one untraced run (a traced pass uses half)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default=None, choices=("0", "1", "both"),
        help="0: untraced pass; 1: traced pass; no value: both passes",
    )
    parser.add_argument(
        "--ladder", action="store_true",
        help="steady_local, untraced: climb the rate ladder after the measured step\n"
        "(max_rate_ok); always on when every workload is run",
    )
    parser.add_argument("--json", metavar="OUT", help="write the full report here")
    parser.add_argument("--trace-out", metavar="FILE", help="Chrome-trace JSON of the spans")
    parser.add_argument("--list", action="store_true", help="print every name and exit")
    parser.add_argument(
        "--contract", action="store_true", help="print what BENCHMARK.json holds and exit"
    )
    parser.add_argument(
        "--inject", default="", choices=("", "drop-delivery", "short-timeout"),
        help="harness self-test: make the run fail on purpose",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# One pass, in this process
# ---------------------------------------------------------------------------


def run_pass(args: argparse.Namespace, work_dir: str) -> Dict[str, Any]:
    """Run one pass of ``args.workload``; returns its report entry."""
    traced = args.trace == "1"
    if not traced:
        result = run_workload(
            args.workload,
            Context(args.seed, args.seconds, work_dir, ladder=args.ladder, inject=args.inject),
        )
        # steady_local reads it before its ladder builds further systems.
        result.metrics.setdefault("peak_rss_mb", peak_rss_mb())
        return _entry(result, traced=False)

    # Traced pass: an untraced reference over the same (half) window first,
    # so the tracing overhead is measured within one process.
    half = args.seconds / 2.0
    reference = run_workload(
        args.workload, Context(args.seed, half, work_dir)
    )
    probe = ledger.Probe()
    with Recorder() as rec:
        ledger.install(rec, probe)
        result = run_workload(
            args.workload,
            Context(args.seed, half, work_dir, rec=rec, probe=probe, inject=args.inject),
        )
    base = reference.metrics.get("cpu_us_per_pub")
    mine = result.metrics.get("cpu_us_per_pub")
    result.layers["trace.overhead_ratio"] = (
        mine.value / base.value if base and mine and base.value else 0.0
    )
    if args.trace_out:
        rec.write_chrome_trace(args.trace_out)
    return _entry(result, traced=True)


def _entry(result: Result, traced: bool) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "attempted_ops": result.verdict.attempted,
        "failed_ops": result.verdict.failed,
        "correct": result.verdict.failed == 0 and result.verdict.attempted > 0,
        "notes": result.verdict.notes,
        "shape": result.shape,
    }
    if result.counts:
        entry["counts"] = result.counts
    if traced:
        entry["per_layer"] = {
            name: {"value": result.layers[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
            if name in result.layers
        }
    else:
        entry["end_to_end"] = {
            name: {"value": summary.value, "unit": E2E_UNITS[name], "n": summary.n}
            for name, summary in result.metrics.items()
            if name in E2E_UNITS
        }
        entry["per_window"] = {
            name: summary.per_window
            for name, summary in result.metrics.items()
            if summary.per_window is not None
        }
        entry["pooled"] = {
            name: summary.value
            for name, summary in result.metrics.items()
            if name.startswith("pooled_")
        }
    return entry


def print_entry(workload: str, entry: Dict[str, Any]) -> None:
    for block in ("end_to_end", "per_layer"):
        for name, metric in entry.get(block, {}).items():
            n = f"  (n={metric['n']})" if "n" in metric else ""
            print(f"{workload:<15} {name:<44} {metric['value']:>14.4f} {metric['unit']}{n}")
    print(
        f"{workload:<15} failed_ops/attempted_ops {entry['failed_ops']}/{entry['attempted_ops']}"
        f"  shape {json.dumps(entry['shape'], sort_keys=True)}"
    )
    for note in entry["notes"]:
        print(f"{workload:<15} ! {note}")


def contract_line(entry: Dict[str, Any], traced: bool) -> Optional[str]:
    """The last line the driver reads, or None when a metric is missing
    (a run that failed before it could measure)."""
    block = entry["per_layer"] if traced else entry["end_to_end"]
    wanted = LAYER_UNITS if traced else {n: u for n, u, __, ___ in spec.END_TO_END}
    if any(name not in block for name in wanted):
        return None
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": max(1, entry["attempted_ops"]),
            "failed": entry["failed_ops"],
            "metrics": {
                name: {"value": block[name]["value"], "unit": unit}
                for name, unit in wanted.items()
            },
        }
    )


def single(args: argparse.Namespace) -> int:
    work_dir = SCRATCH / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        entry = run_pass(args, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    traced = args.trace == "1"
    print_entry(args.workload, entry)
    if args.json:
        _write_report(args, {args.workload: {("traced" if traced else "untraced"): entry}})
    _remove_if_empty(SCRATCH)
    line = contract_line(entry, traced)
    if line is None:
        print(f"{args.workload}: run failed before every metric was measured", file=sys.stderr)
        return 1
    print(line)
    return 0 if entry["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, each pass in a child process
# ---------------------------------------------------------------------------


def orchestrate(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    passes = ["0", "1"] if args.trace == "both" else [args.trace or "0"]
    SCRATCH.mkdir(exist_ok=True)
    report: Dict[str, Dict[str, Any]] = {}
    status = 0
    for name in names:
        for trace in passes:
            out = SCRATCH / f"report-{os.getpid()}-{name}-{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", trace, "--json", str(out),
            ]
            if trace == "0":
                command.append("--ladder")
            if args.inject:
                command += ["--inject", args.inject]
            if args.trace_out and trace == "1":
                command += ["--trace-out", f"{args.trace_out}.{name}.json"]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
            # The child's own table, without its machine-readable last line.
            lines = child.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith("{")))
            if child.returncode != 0:
                status = 1
            if out.exists():
                with open(out, encoding="utf-8") as handle:
                    document = json.load(handle)
                report.setdefault(name, {}).update(document["workloads"][name])
                out.unlink()
    for name in names:
        traced = report.get(name, {}).get("traced")
        if traced and "trace.overhead_ratio" in traced.get("per_layer", {}):
            ratio = traced["per_layer"]["trace.overhead_ratio"]["value"]
            print(f"{name:<15} tracing overhead: traced/untraced cpu_us_per_pub = {ratio:.3f}")
    if args.json:
        _write_report(args, report)
    _remove_if_empty(SCRATCH)
    print("OK" if status == 0 else "FAILED: see the lines marked '!' above")
    return status


def _remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass  # another run's files are in it


def _write_report(args: argparse.Namespace, workloads: Dict[str, Any]) -> None:
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "workloads": workloads,
    }
    problems = schema.validate(document)
    if problems:
        raise ValueError(f"report does not fit report.schema.json: {problems[:5]}")
    with open(args.json, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1, sort_keys=True)


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.list:
        print(spec.listing())
        return 0
    if args.contract:
        print(json.dumps(spec.contract(), indent=2))
        return 0
    if args.workload and args.trace in ("0", "1"):
        return single(args)
    return orchestrate(args)
