"""Replay every checked-in conformance repro as an ordinary pytest case.

Each ``conformance/*.json`` is either a minimized divergence written by
the conformance campaign (``python -m repro conform``) or an agreement
pinning a subtle edge case of the comparison relation (see
docs/TESTING.md for the check-in workflow).  The aio leg runs on real
wall-clock timers, so these are marked slow; the verdict itself must
still reproduce on every run.
"""

import glob
import os

import pytest

from repro.check import replay_conformance

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "conformance")
REPRO_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_conformance_corpus_is_not_empty():
    assert REPRO_FILES, (
        "tests/corpus/conformance must contain at least one repro file"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[os.path.basename(p) for p in REPRO_FILES]
)
def test_replay(path):
    result, expect = replay_conformance(path)
    verdict = "pass" if result.ok else "fail"
    assert verdict == expect, (
        f"{os.path.basename(path)}: expected {expect}, got {verdict}: "
        f"{result.divergences[:3]}"
    )
    if result.options["mutations"]:
        # A mutation repro only proves anything if the deliberate defect
        # actually fired during the replay.
        assert sum(result.aio.mutated.values()) > 0
