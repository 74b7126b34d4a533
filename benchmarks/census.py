#!/usr/bin/env python3
"""Function-level reachability census of ``src/repro``.

Runs every entry point of the system — the CLI campaigns and figures,
the examples, the load benchmark's passes and the figure/ablation
benchmarks — each in its own child process under a ``sys.setprofile``
hook, and lists every ``src/repro`` function that no entry point
entered, grouped by module::

    python benchmarks/census.py                    # print the unreached list
    python benchmarks/census.py --write benchmarks/unreached.txt
    python benchmarks/census.py --check benchmarks/unreached.txt

``benchmarks/unreached.txt`` gives each unreached function a tag and a
one-line reason (``TAGS``).  ``--write`` keeps the tags already in the
file and marks new entries ``?``; ``--check`` fails on an entry the file
does not tag, on a listed function that something now reaches, and on a
listed function that no longer exists.

A function is keyed ``module:qualname``.  The hook sees code objects and
:func:`functions` enumerates ``def`` statements with :mod:`ast`; they
meet at ``(file, first line, name)``, which needs no ``co_qualname``
(Python 3.11+).  Lambdas and comprehensions are not functions here.

Three things would make running code look dead, and the entry table
avoids each: pytest-benchmark clears the profile hook during timed
rounds (so pytest runs with ``--benchmark-disable``, and a child fails if
its hook was removed); ``benchmarks/load/run.py`` runs a pass in a
grandchild process unless ``--trace 0|1`` names one (so each pass is
named); and an entry's failure would hide what it did not reach (so a
nonzero exit fails the census).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Why a function no entry point runs is kept.
TAGS = {
    "interface": "an abstract method or a no-op hook a subclass may override",
    "failure": "runs only when something fails",
    "ledger": "a name the frozen load benchmark wraps or calls",
    "roadmap": "a ROADMAP item decides on it",
    "oracle": "code the tests compare against",
    "debug": "a __repr__/__str__/__len__ for people",
}

_CONFORM = ["conform", "--seed", "0", "--runs", "25"]
_LOAD = ["steady_local", "backlog_drain", "tcp_durable", "fanout_churn",
         "lossy_recovery", "sim_chain"]

#: name -> (kind, arguments).  ``repro``: ``python -m repro`` arguments;
#: ``script``: a file under the repository and its arguments; ``pytest``:
#: pytest arguments.  Paths are relative to the repository.
ENTRIES: Dict[str, Tuple[str, List[str]]] = {
    "fuzz": ("repro", ["fuzz", "--runs", "60", "--verify-deterministic"]),
    "fuzz-flush": ("repro", ["fuzz", "--runs", "60", "--flush-delay", "0.05"]),
    "conform": ("repro", _CONFORM),
    "conform-tcp": ("repro", ["conform", "--seed", "100", "--runs", "10",
                              "--transport", "tcp"]),
    "conform-corrupt": ("repro", ["conform", "--seed", "200", "--runs", "10",
                                  "--corrupt-rate", "0.05"]),
    "chaos-tcp": ("repro", ["chaos", "--seed", "0", "--runs", "3", "--duration", "1.5"]),
    "chaos-local": ("repro", ["chaos", "--seed", "10", "--runs", "2",
                              "--duration", "1.5", "--transport", "local"]),
    "chaos-corrupt": ("repro", ["chaos", "--seed", "20", "--runs", "2",
                                "--duration", "1.5", "--corrupt-rate", "1.0",
                                "--data-dir", "chaos-data"]),
    "fig6": ("repro", ["fig6", "--dump", "fig6.csv"]),
    "fig7": ("repro", ["fig7"]),
    "fig8": ("repro", ["fig8"]),
    "overhead": ("repro", ["overhead", "--subs", "100", "400"]),
    "quickcheck": ("repro", ["quickcheck"]),
    "stats": ("repro", ["stats", "--topology", "figure3", "--duration", "5",
                        "--drop", "0.15", "--seed", "11"]),
    "stats-json": ("repro", ["stats", "--topology", "two_broker", "--format", "json"]),
    "trace": ("repro", ["trace", "--drop", "0.1", "--duration", "5", "--seed", "7",
                        "--chrome", "trace.json", "--timeline", "P0:3880"]),
    "replay": ("repro", ["replay", "tests/corpus/*.json",
                         "tests/corpus/conformance/*.json"]),
    "bench": ("repro", ["bench", "--check", "benchmarks/baseline_counters.json"]),
    "serve": ("repro", ["serve", "--duration", "2", "--settle", "2",
                        "--data-dir", "serve-data"]),
    **{
        f"load-{workload}-{trace}": (
            "script",
            ["benchmarks/load/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "2", "--trace", trace] + (["--ladder"] if trace == "0" else []),
        )
        for workload in _LOAD
        for trace in ("0", "1")
    },
    "benchmarks": ("pytest", ["benchmarks", "--ignore=benchmarks/load",
                              "--benchmark-disable", "-q", "-p", "no:cacheprovider"]),
    **{
        f"example-{path.stem}": ("script", [f"examples/{path.name}"])
        for path in sorted((ROOT / "examples").glob("*.py"))
    },
}

#: Entries run at once: the whole census takes 8–9 minutes on 2 vCPUs.
JOBS = 2

Site = Tuple[str, int, str]  # (file under src/repro, first line, name)


def module_name(path: Path, root: Path = SRC) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _defs(tree: ast.AST) -> Iterable[Tuple[str, ast.AST]]:
    """Every ``def`` under ``tree`` with its ``__qualname__``."""

    def walk(node: ast.AST, prefix: str) -> Iterable[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                yield qualname, child
                yield from walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def functions(package: Path = PACKAGE) -> Dict[Site, str]:
    """``(file, first line, name) -> "module:qualname"`` for every function
    defined under ``package``.  The first line is the first decorator's,
    as in a code object's ``co_firstlineno``."""
    found: Dict[Site, str] = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = module_name(path, package.parent)
        for qualname, node in _defs(tree):
            line = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(str(path), line, node.name)] = f"{module}:{qualname}"
    return found


def site(code) -> Site:
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)


class Hook:
    """Collects the code object of every Python frame entered while
    installed (on this thread and any thread started meanwhile)."""

    def __init__(self) -> None:
        self.codes: Set = set()
        seen = self.codes.add

        def hook(frame, event, arg):
            if event == "call":
                seen(frame.f_code)

        self._hook = hook

    def __enter__(self) -> "Hook":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        intact = sys.getprofile() is self._hook
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
        if not intact and exc[0] is None:
            raise RuntimeError("the profile hook was removed while it ran")

    def sites(self) -> Set[Site]:
        """The entered functions defined under ``src/repro``."""
        prefix = str(PACKAGE) + os.sep
        return {s for s in map(site, self.codes) if s[0].startswith(prefix)}


def _absolute(arg: str) -> List[str]:
    """``arg`` (or its ``--option=`` value) with a repository path made
    absolute and a glob expanded: an entry runs in a scratch directory."""
    option, eq, path = arg.rpartition("=")
    if not path.startswith(("tests/", "benchmarks", "examples/")):
        return [arg]
    paths = sorted(ROOT.glob(path)) if "*" in path else [ROOT / path]
    return [f"{option}{eq}{p}" for p in paths]


def _run_entry(kind: str, argv: List[str]) -> int:
    """Run one entry point in this process; its exit status."""
    try:
        if kind == "pytest":
            import pytest

            return int(pytest.main(argv))
        if kind == "repro":
            from repro.cli import main

            return int(main(argv) or 0)
        sys.argv = list(argv)
        sys.path.insert(0, str(Path(argv[0]).parent))
        runpy.run_path(argv[0], run_name="__main__")
        return 0
    except SystemExit as stop:
        code = stop.code
        return code if isinstance(code, int) else (0 if code is None else 1)


def child(name: str, out: str) -> int:
    kind, argv = ENTRIES[name]
    argv = [absolute for arg in argv for absolute in _absolute(arg)]
    with Hook() as hook:
        status = _run_entry(kind, argv)
    with open(out, "w") as handle:
        json.dump({"status": status, "sites": sorted(hook.sites())}, handle)
    return 0


def run_all() -> Tuple[Set[Site], List[str]]:
    """Run every entry in a child process, ``JOBS`` at a time; (entered
    sites, failed entries)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    entered: Set[Site] = set()
    failed: List[str] = []

    def one(name: str) -> None:
        with tempfile.TemporaryDirectory(prefix=f"census-{name}-") as cwd:
            out = os.path.join(cwd, "sites.json")
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--entry", name, "--out", out],
                cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True,
            )
            status = proc.returncode
            if status == 0:
                with open(out) as handle:
                    report = json.load(handle)
                status = report["status"]
                entered.update(tuple(s) for s in report["sites"])
            print(f"census: {name:<28} {time.monotonic() - started:6.1f}s"
                  f"{'' if status == 0 else f'  FAILED (exit {status})'}",
                  file=sys.stderr, flush=True)
            if status != 0:
                failed.append(name)
                sys.stderr.write(proc.stderr[-2000:])

    # Longest first, so the workers finish together.
    order = sorted(ENTRIES, key=lambda n: _SLOWEST.index(n) if n in _SLOWEST else len(_SLOWEST))
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        list(pool.map(one, order))
    return entered, failed


_SLOWEST = ["benchmarks", "conform", "fuzz", "fuzz-flush", "example-failover_tour",
            "conform-tcp", "conform-corrupt"]

Listing = Dict[str, Tuple[str, str]]  # key -> (tag, reason)


def read_listing(path: str) -> Listing:
    """``unreached.txt``: ``[module]`` headers, then ``qualname tag reason``
    lines; ``#`` starts a comment line."""
    listing: Listing = {}
    module = None
    for number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            module = line[1:-1]
            continue
        parts = line.split(None, 2)
        if module is None or len(parts) < 2:
            raise ValueError(f"{path}:{number}: not 'qualname tag reason': {raw!r}")
        listing[f"{module}:{parts[0]}"] = (parts[1], parts[2] if len(parts) > 2 else "")
    return listing


def write_listing(path: str, unreached: Iterable[str], old: Listing, counts: str) -> None:
    by_module: Dict[str, List[str]] = {}
    for key in sorted(unreached):
        module, qualname = key.split(":", 1)
        by_module.setdefault(module, []).append(qualname)
    width = max((len(q) for qs in by_module.values() for q in qs), default=0)
    lines = [
        "# Functions of src/repro that no entry point of benchmarks/census.py",
        "# enters, by module: qualname, tag, reason.  Tags:",
        *(f"#   {tag:<9} {meaning}" for tag, meaning in TAGS.items()),
        f"# {counts}",
        "# Regenerate: python benchmarks/census.py --write benchmarks/unreached.txt",
    ]
    for module, qualnames in by_module.items():
        lines += ["", f"[{module}]"]
        for qualname in qualnames:
            tag, reason = old.get(f"{module}:{qualname}", ("?", "untriaged"))
            lines.append(f"{qualname:<{width}}  {tag:<9} {reason}".rstrip())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_listing(listing: Listing, unreached: Set[str], defined: Set[str]) -> List[str]:
    problems = []
    for key in sorted(unreached - set(listing)):
        problems.append(f"{key}: unreached and not in the list (tag it or call it)")
    for key, (tag, __) in sorted(listing.items()):
        if key not in defined:
            problems.append(f"{key}: listed but no longer defined")
        elif key not in unreached:
            problems.append(f"{key}: listed but now reached (remove it from the list)")
        elif tag not in TAGS:
            problems.append(f"{key}: tag {tag!r} is not one of {sorted(TAGS)}")
    return problems


def main(args: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE", help="write the list, keeping its tags")
    mode.add_argument("--check", metavar="FILE", help="fail unless FILE matches the census")
    parser.add_argument("--entry", choices=sorted(ENTRIES), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    opts = parser.parse_args(args)
    if opts.entry:
        return child(opts.entry, opts.out)

    started = time.monotonic()
    sites = functions()
    entered, failed = run_all()
    defined = set(sites.values())
    reached = {sites[s] for s in entered if s in sites}
    unreached = defined - reached
    counts = (f"{len(defined)} functions defined, {len(reached)} entered, "
              f"{len(unreached)} unreached")
    print(f"census: {counts} ({time.monotonic() - started:.0f}s)", file=sys.stderr)
    if failed:
        print(f"census: entries failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if opts.check:
        problems = check_listing(read_listing(opts.check), unreached, defined)
        for problem in problems:
            print(f"census: {problem}", file=sys.stderr)
        return 1 if problems else 0
    if opts.write:
        old = read_listing(opts.write) if os.path.exists(opts.write) else {}
        write_listing(opts.write, unreached, old, counts)
    else:
        for key in sorted(unreached):
            print(key)
    return 0


if __name__ == "__main__":
    sys.exit(main())
