"""Self-checks of the load benchmark's harness.  Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/load/test_harness.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.workloads import market_ticks, subscription_population

from . import schema, spec
from .harness import Verdict, check_exact, cpu_us_per_pub, latency_metrics, split_windows
from .workloads import (
    FANOUT_SYMBOLS,
    Context,
    Stamp,
    churn_schedule,
    loss_schedule,
    sim_chain,
    tcp_body_sizes,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_cli(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- seeded inputs ------------------------------------------------------------


def publications(seed: int, count: int) -> bytes:
    stamp = Stamp(market_ticks(FANOUT_SYMBOLS, seed=seed))
    return json.dumps([stamp(seq) for seq in range(count)]).encode()


def population(seed: int) -> list:
    return [
        (s.sub_id, repr(s.predicate))
        for s in subscription_population(300, FANOUT_SYMBOLS, seed=seed)
    ]


def schedule(seed: int) -> list:
    return [(i, slot, s.sub_id, repr(s.predicate)) for i, slot, s in churn_schedule(seed, 600)]


def test_same_seed_same_inputs():
    for generate in (
        lambda seed: publications(seed, 500),
        population,
        schedule,
        lambda seed: tcp_body_sizes(seed, 500),
        lambda seed: sorted(loss_schedule(seed, 500)),
    ):
        assert generate(7) == generate(7)
        assert generate(7) != generate(8)
    # One loss in every ten publications, whatever the seed.
    assert [len([i for i in loss_schedule(7, 500) if i // 10 == k]) for k in range(50)] == [1] * 50


def test_sim_chain_counts_repeat_exactly():
    first = sim_chain(Context(seed=11, window_s=2.0, work_dir=""))
    second = sim_chain(Context(seed=11, window_s=2.0, work_dir=""))
    assert first.verdict.failed == 0 and first.verdict.attempted > 0
    assert set(first.counts) == {
        "published", "deliveries", "events_run", "knowledge_sent", "nacks_sent"
    }
    assert first.counts == second.counts
    assert sim_chain(Context(seed=12, window_s=2.0, work_dir="")).counts != first.counts


# -- failure accounting ---------------------------------------------------------


def test_checker_counts_every_kind_of_failure():
    verdict = Verdict()
    received = [("P0", 1, None, 0.0), ("P0", 3, None, 0.1), ("P0", 2, None, 0.2),
                ("P0", 3, None, 0.3), ("P0", 9, None, 0.4)]
    check_exact("s", received, {("P0", 1), ("P0", 2), ("P0", 3), ("P0", 4)}, verdict)
    assert (verdict.attempted, verdict.missing, verdict.duplicates) == (4, 1, 1)
    assert (verdict.out_of_order, verdict.unexpected, verdict.failed) == (1, 1, 4)


def test_dropped_delivery_fails_the_run():
    done = run_cli(
        "--workload", "sim_chain", "--seed", "1", "--seconds", "1", "--trace", "0",
        "--inject", "drop-delivery",
    )
    assert done.returncode == 1
    result = last_line(done)
    assert result["correct"] is False and result["failed"] >= 1


def test_timeout_reports_failed_ops_instead_of_hanging():
    done = run_cli(
        "--workload", "backlog_drain", "--seed", "1", "--seconds", "1", "--trace", "0",
        "--inject", "short-timeout",
    )
    assert done.returncode == 1
    assert "undelivered" in done.stdout
    assert "failed_ops/attempted_ops" in done.stdout


# -- statistics -------------------------------------------------------------------


def test_window_statistics_ignore_one_stalled_window():
    samples = [(t / 100.0, 1.0 + (t % 7) / 10.0) for t in range(300)]
    stalled = [(due, ms + 500.0) if 1.0 <= due < 1.2 else (due, ms) for due, ms in samples]
    calm = latency_metrics(split_windows(samples, 0.0, 1.0, 3))
    hit = latency_metrics(split_windows(stalled, 0.0, 1.0, 3))
    assert hit["latency_p99_ms"].value == calm["latency_p99_ms"].value
    assert hit["pooled_max_ms"].value > 500.0
    assert hit["latency_p99_ms"].n == 300
    marks = [(0, 0.0), (100, 0.1), (200, 0.5), (300, 0.6)]
    assert round(cpu_us_per_pub(marks).value, 6) == 1000.0


# -- names, contract, report ----------------------------------------------------------


def test_benchmark_json_matches_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == spec.contract()
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())
    assert all(bound <= 0.25 for *__, bound in spec.END_TO_END)
    assert 2 <= len(spec.WORKLOADS) <= 8 and len(spec.PER_LAYER) <= 128
    names = [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
    assert len(names) == len(set(names)) and "setup_s" in names


def test_list_prints_every_name():
    done = run_cli("--list")
    assert done.returncode == 0
    for name in (
        list(spec.WORKLOADS)
        + [m[0] for m in spec.END_TO_END + spec.WORKLOAD_ONLY]
        + [m[0] for m in spec.PER_LAYER]
    ):
        assert name in done.stdout


def test_report_fits_schema_and_contract_lines(tmp_path):
    out = tmp_path / "report.json"
    done = run_cli(
        "--workload", "sim_chain", "--seed", "2", "--seconds", "2", "--trace", "--json", str(out)
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    assert schema.validate(report) == []
    entry = report["workloads"]["sim_chain"]
    assert set(entry["untraced"]["end_to_end"]) == {m[0] for m in spec.END_TO_END}
    assert set(entry["traced"]["per_layer"]) == {m[0] for m in spec.PER_LAYER}
    assert entry["untraced"]["failed_ops"] == 0
    assert schema.validate({"seed": "1"}) != []

    for trace, names in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        done = run_cli("--workload", "sim_chain", "--seed", "2", "--seconds", "2", "--trace", trace)
        result = last_line(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m[0] for m in names]
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
