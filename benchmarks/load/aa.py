#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself?

``aa.py --runs 5`` runs the untraced pass of every workload ``2 x 5``
times on the same code, each run with another seed, alternating between
set A and set B so that drift of the machine lands on both.  For every
end-to-end metric x workload it prints each set's median, quartiles and
``max/min - 1``, the spread of all runs together (distance between the
quartiles as a share of the median, the figure the bounds are sized
from), and fails if the two medians differ by more than the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path[0] = str(HERE.parent)

from load import spec  # noqa: E402

BOUNDS = {name: (better, bound) for name, __, better, bound in spec.END_TO_END}


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def describe(values: List[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:11.4f} [{q1:11.4f},{q3:11.4f}] {max(values) / min(values) - 1:6.1%}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=float, default=float(spec.DEFAULT_SECONDS))
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument("--workload", action="append", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--save", metavar="DIR", help="keep every run's --json report here")
    args = parser.parse_args()
    names = args.workload or list(spec.WORKLOADS)
    save = Path(args.save) if args.save else HERE.parents[1] / ".bench_tmp"
    save.mkdir(parents=True, exist_ok=True)

    failures: List[str] = []
    for name in names:
        sets: Dict[str, Dict[str, List[float]]] = {"A": {}, "B": {}}
        for i in range(2 * args.runs):
            seed = args.seed + i
            out = save / f"aa-{name}-{seed}.json"
            child = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0", "--json", str(out),
                ],
                stdout=subprocess.DEVNULL,
                timeout=600,
            )
            if child.returncode != 0:
                failures.append(f"{name} seed {seed}: run failed (exit {child.returncode})")
                continue
            with open(out, encoding="utf-8") as handle:
                metrics = json.load(handle)["workloads"][name]["untraced"]["end_to_end"]
            if not args.save:
                out.unlink()
            for metric, entry in metrics.items():
                sets["AB"[i % 2]].setdefault(metric, []).append(entry["value"])
        print(f"== {name}: median [q1,q3] max/min-1 per set; spread of all runs; A vs B")
        for metric in sets["A"]:
            a, b = sets["A"][metric], sets["B"].get(metric, [])
            if len(a) < 2 or len(b) < 2:
                continue
            both = spread(a + b)
            median_a, median_b = statistics.median(a), statistics.median(b)
            line = f"{metric:<20} A {describe(a)}  B {describe(b)}  spread {both:6.1%}"
            if metric in BOUNDS:
                better, bound = BOUNDS[metric]
                worse = (
                    median_b / median_a - 1 if better == "lower" else median_a / median_b - 1
                )
                apart = max(worse, -worse / (1 + worse))  # either set may be the worse one
                verdict = "ok" if apart <= bound else "DIFFER"
                line += f"  medians apart {apart:6.1%} (bound {bound:.0%}) {verdict}"
                if apart > bound:
                    failures.append(f"{name} {metric}: set medians {apart:.1%} apart")
                if metric != "setup_s" and both > bound:
                    failures.append(f"{name} {metric}: spread {both:.1%} exceeds its bound")
            print(line)
    if not args.save:
        try:
            save.rmdir()
        except OSError:
            pass  # another run's files are in it
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
