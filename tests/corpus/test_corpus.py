"""Replay every checked-in repro file as an ordinary pytest case.

Each ``*.json`` in this directory is a minimized scenario written by the
fuzzer (``python -m repro fuzz``) or checked in by hand after a bug hunt
(see docs/FUZZING.md for the check-in workflow).  Replays are fully
deterministic, so a repro's verdict — ``expect: pass`` for fixed
regressions, ``expect: fail`` for known-broken ablations — must reproduce
bit-for-bit on every run.
"""

import glob
import os

import pytest

from repro.check import load_repro, run_scenario

CORPUS_DIR = os.path.dirname(__file__)
REPRO_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert REPRO_FILES, "tests/corpus must contain at least one repro file"


@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[os.path.basename(p) for p in REPRO_FILES]
)
def test_replay(path):
    scenario, expect, __, ___ = load_repro(path)
    result = run_scenario(scenario)
    verdict = "pass" if result.ok else "fail"
    assert verdict == expect, (
        f"{os.path.basename(path)}: expected {expect}, got {verdict}: "
        f"{result.failures[:3]}"
    )


@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[os.path.basename(p) for p in REPRO_FILES]
)
def test_replay_causal_timeline_matches_golden(path):
    """A failing repro's causal timeline is a byte-stable artifact.

    ``tests/corpus/golden/<stem>.timeline.txt`` pins the span timeline of
    the violating ``(pubend, tick)``; pass entries must produce none.
    The causal tracer is pure observation, so the digest stays identical
    to the plain replay either way.
    """
    scenario, expect, __, ___ = load_repro(path)
    plain = run_scenario(scenario)
    result = run_scenario(scenario, causal=True)
    assert result.digest == plain.digest, "causal tracing changed the run"
    stem = os.path.basename(path)[: -len(".json")]
    golden = os.path.join(CORPUS_DIR, "golden", f"{stem}.timeline.txt")
    if expect == "pass":
        assert not result.causal_timeline
        assert not os.path.exists(golden)
        return
    assert result.subjects, "failing repro should name a (pubend, tick)"
    assert result.causal_timeline
    with open(golden) as handle:
        assert result.causal_timeline == handle.read(), (
            f"causal timeline of {stem} diverged from {golden}; if the "
            f"change is intended, regenerate via "
            f"run_scenario(scenario, causal=True).causal_timeline"
        )
