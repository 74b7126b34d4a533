"""Tests for the experiment command line."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

COMMITTED_BASELINE = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_counters.json"
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_commands_share_seed_flag(self):
        for name in ("fig6", "fig7", "fig8"):
            args = build_parser().parse_args([name, "--seed", "11"])
            assert args.seed == 11

    def test_overhead_defaults(self):
        args = build_parser().parse_args(["overhead"])
        assert args.subs == [100, 400, 1600]
        assert args.rate == 200.0


class TestBenchParser:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.json is None
        assert args.check is None
        assert args.tolerance == 0.05
        assert args.repeat == 3

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 0
        assert args.runs == 1
        assert args.duration == 2.0
        assert args.transport == "tcp"
        assert args.data_dir is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.duration == 5.0
        assert args.settle == 2.0
        assert args.rate == 40.0
        assert args.data_dir is None

    def test_fuzz_and_replay_take_flush_delay(self):
        assert build_parser().parse_args(
            ["fuzz", "--flush-delay", "0.05"]
        ).flush_delay == 0.05
        assert build_parser().parse_args(
            ["replay", "x.json", "--flush-delay", "0.02"]
        ).flush_delay == 0.02

    def test_conform_defaults(self):
        args = build_parser().parse_args(["conform"])
        assert args.seed == 0
        assert args.runs == 25
        assert args.shrink is True
        assert args.transport == "local"
        assert args.time_scale == 0.35
        assert args.mutate is None

    def test_conform_takes_mutations_and_replay_is_its_own_command(self):
        args = build_parser().parse_args(
            ["conform", "--mutate", "suppress-retransmit", "--transport", "tcp"]
        )
        assert args.mutate == ["suppress-retransmit"]
        assert args.transport == "tcp"
        # `repro replay` replays every kind of repro file.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conform", "--replay", "a.json"])

    def test_fuzz_and_conform_share_the_campaign_flags(self):
        flags = ["--seed", "3", "--runs", "4", "--time-budget", "9",
                 "--no-shrink", "--repro-dir", "out", "--keep-going"]
        for command in ("fuzz", "conform"):
            args = build_parser().parse_args([command] + flags)
            assert (args.seed, args.runs, args.time_budget) == (3, 4, 9.0)
            assert (args.shrink, args.repro_dir, args.keep_going) == (
                False, "out", True
            )


class TestBenchCommand:
    def test_bench_emits_report_and_baseline(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "BENCH.json"
        baseline_path = tmp_path / "baseline.json"
        assert main([
            "bench",
            "--repeat", "1",
            "--json", str(report_path),
            "--write-baseline", str(baseline_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "batching reduction" in out

        report = json.loads(report_path.read_text())
        assert report["bench_version"] >= 4
        assert set(report["benchmarks"]) == {
            "interval_map_appends",
            "knowledge_publish_pattern",
            "matching_engine",
            "chain_batching",
            "trace_overhead",
        }
        assert report["derived"] == {
            "batching_reduction": report["benchmarks"]["chain_batching"][
                "batching_reduction"
            ]
        }
        assert report["derived"]["batching_reduction"] >= 2.0
        # Tracing is gated on what repeats exactly, never on a time ratio.
        assert set(report["benchmarks"]["trace_overhead"]["counters"]) == {
            "trace_causal_spans",
            "trace_hook_dispatches",
        }

        baseline = json.loads(baseline_path.read_text())
        assert baseline["counters"] == report["counters"]
        # The counters are machine-independent, so the committed baseline
        # must match this run exactly: a stale baseline fails here, not
        # only in CI's bench-gate.
        committed = json.loads(COMMITTED_BASELINE.read_text())
        assert committed["counters"] == report["counters"]

    def test_gate_logic(self):
        from repro.bench import compare_counters

        baseline = {"a": 100, "b": 0, "c": 50}
        assert compare_counters({"a": 100, "b": 0, "c": 52}, baseline) == []
        assert compare_counters({"a": 111, "b": 0, "c": 50}, baseline)
        assert compare_counters({"a": 100, "b": 1, "c": 50}, baseline)
        # A counter vanishing from the report must fail loudly.
        assert compare_counters({"a": 100, "b": 0}, baseline)


class TestCommands:
    def test_quickcheck_passes(self, capsys):
        assert main(["quickcheck"]) == 0
        out = capsys.readouterr().out
        assert "exactly once: True" in out

    def test_overhead_prints_table(self, capsys):
        assert main(["overhead", "--subs", "50", "--measure", "2"]) == 0
        out = capsys.readouterr().out
        assert "gd" in out and "best-effort" in out

    def test_fig6_runs(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "exactly once" in out
        assert "nack" in out

    def test_chaos_command_runs(self, capsys, tmp_path):
        assert main([
            "chaos",
            "--duration", "1.0",
            "--settle", "1.5",
            "--min-published", "5",
            "--data-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_serve_command_runs(self, capsys):
        assert main(["serve", "--duration", "0.5", "--settle", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "listening" in out
        assert "exactly once: True" in out
