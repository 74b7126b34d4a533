"""Differential model test for :class:`repro.core.intervals.IntervalMap`.

The RLE map has three update paths — the general splice engine, the O(1)
tail append and the ``set_prefix`` front-trim — and two bisecting scans
(``first_with`` / ``ranges_with``); all must agree exactly with the
obvious reference model: a plain ``{tick: value}`` dict.  This test
drives long random operation sequences through every public mutator
(``set_range`` / ``set_value`` / ``clear_range`` / ``combine_range`` /
``transform_range`` / ``set_prefix``) against both implementations,
checks :meth:`IntervalMap.check_invariants` after **every** operation,
and compares return values and the full materialized contents after
every operation.  The scans are compared for every ``(lo, hi)`` pair over
random maps.

Sequences are biased toward the publish pattern (monotone appends at the
growing tail) as well as uniformly random splices, so every branch of
``_apply`` sees heavy traffic; a counter assertion at the end proves each
branch actually ran.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.core.intervals import STATS, IntervalMap
from repro.core.ticks import TickRange, merge_ranges

SPAN = 120  # model universe is ticks [0, SPAN)
DEFAULT = 0

# Value transformers used by combine_range / transform_range.  Named
# functions (not lambdas) so failures print readably.


def _max(old: int, new: int) -> int:
    return max(old, new)


def _add(old: int, new: int) -> int:
    return old + new


def _bump(old: int) -> int:
    return old + 1


def _clamp(old: int) -> int:
    return min(old, 3)


class DictModel:
    """The reference implementation: a dense dict over [0, SPAN)."""

    def __init__(self) -> None:
        self.data: Dict[int, int] = {}

    def get(self, tick: int) -> int:
        return self.data.get(tick, DEFAULT)

    def set_range(self, rng: TickRange, value: int) -> None:
        for t in range(rng.start, rng.stop):
            self.data[t] = value

    def set_value(self, tick: int, value: int) -> None:
        self.data[tick] = value

    def clear_range(self, rng: TickRange) -> None:
        for t in range(rng.start, rng.stop):
            self.data.pop(t, None)

    def combine_range(
        self, rng: TickRange, value: int, fn: Callable[[int, int], int]
    ) -> None:
        for t in range(rng.start, rng.stop):
            self.data[t] = fn(self.get(t), value)

    def transform_range(self, rng: TickRange, fn: Callable[[int], int]) -> None:
        for t in range(rng.start, rng.stop):
            self.data[t] = fn(self.get(t))

    def set_prefix(self, hi: int, value: int):
        """Returns what the front-trim reports: the stop of the resulting
        first run and the overwritten maximal runs whose value differed."""
        replaced: List[Tuple[int, int, int]] = []
        for t in range(hi):
            old = self.get(t)
            if old not in (DEFAULT, value):
                if replaced and replaced[-1][1:] == (t, old):
                    replaced[-1] = (replaced[-1][0], t + 1, old)
                else:
                    replaced.append((t, t + 1, old))
            self.data[t] = value
        stop = hi
        while self.get(stop) == value:
            stop += 1
        return stop, replaced

    def to_dict(self, lo: int, hi: int) -> Dict[int, int]:
        return {t: self.get(t) for t in range(lo, hi)}

    # -- scans, longhand ---------------------------------------------------

    def first_with(
        self, pred: Callable[[int], bool], lo: int, hi: Optional[int] = None
    ) -> Optional[int]:
        # Past the last written tick everything is default, so one extra
        # tick decides an unbounded search.
        end = hi if hi is not None else max([lo, *(t + 1 for t in self.data)]) + 1
        return next((t for t in range(lo, end) if pred(self.get(t))), None)

    def ranges_with(
        self, pred: Callable[[int], bool], lo: int, hi: int
    ) -> List[TickRange]:
        return merge_ranges(
            TickRange.single(t) for t in range(lo, hi) if pred(self.get(t))
        )


Op = Tuple  # (name, *args) — applied by name to both implementations


def _random_ops(rng: random.Random, count: int, prefix_ops: bool = True) -> List[Op]:
    """A mixed op sequence: uniform splices plus tail-append bursts and,
    with ``prefix_ops``, front-trims."""
    ops: List[Op] = []
    tail = 0  # grows monotonically; appends at/past it take the tail path
    while len(ops) < count:
        roll = rng.random()
        if prefix_ops and rng.random() < 0.15:
            # Front-trim: an ack advancing (or re-asserting) the prefix.
            ops.append(("set_prefix", rng.randint(1, SPAN), rng.randint(1, 4)))
        elif roll < 0.35:
            # Tail-append burst: the pubend publish pattern.
            width = rng.randint(1, 6)
            value = rng.randint(0, 4)
            kind = rng.choice(("set", "combine", "transform"))
            stop = min(SPAN, tail + width)
            if tail >= stop:
                tail = 0  # hit the end of the universe; restart the appends
                continue
            r = TickRange(tail, stop)
            if kind == "set":
                ops.append(("set_range", r, value))
            elif kind == "combine":
                ops.append(("combine_range", r, value, rng.choice((_max, _add))))
            else:
                ops.append(("transform_range", r, rng.choice((_bump, _clamp))))
            tail = r.stop
        elif roll < 0.75:
            # Uniform random splice anywhere in the universe.
            start = rng.randint(0, SPAN - 1)
            stop = min(SPAN, start + rng.randint(1, 25))
            r = TickRange(start, stop)
            kind = rng.random()
            if kind < 0.4:
                ops.append(("set_range", r, rng.randint(0, 4)))
            elif kind < 0.6:
                ops.append(("clear_range", r))
            elif kind < 0.8:
                ops.append(
                    ("combine_range", r, rng.randint(0, 4), rng.choice((_max, _add)))
                )
            else:
                ops.append(("transform_range", r, rng.choice((_bump, _clamp))))
        else:
            ops.append(("set_value", rng.randint(0, SPAN - 1), rng.randint(0, 4)))
    return ops


def _apply_op(target, op: Op):
    name, args = op[0], op[1:]
    return getattr(target, name)(*args)


def _run_sequence(ops: List[Op]) -> None:
    imap: IntervalMap[int] = IntervalMap(default=DEFAULT)
    model = DictModel()
    for step, op in enumerate(ops):
        where = f"after step {step} {op[0]}{op[1:]}"
        assert _apply_op(imap, op) == _apply_op(model, op), f"return value {where}"
        imap.check_invariants()
        got = imap.to_dict(0, SPAN)
        want = model.to_dict(0, SPAN)
        assert got == want, (
            f"divergence {where}: "
            f"{ {t: (got[t], want[t]) for t in got if got[t] != want[t]} }"
        )


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("prefix_ops", (True, False))
def test_random_ops_match_dict_model(seed: int, prefix_ops: bool) -> None:
    rng = random.Random(0xBEEF00 + seed)
    _run_sequence(_random_ops(rng, 120, prefix_ops))


def test_every_update_path_exercised() -> None:
    """The op mix must drive every branch of the update engine — otherwise
    the parametrized differential above silently stops covering one."""
    before = STATS.snapshot()
    rng = random.Random(0xFA57)
    _run_sequence(_random_ops(rng, 200))
    # Uniform splices quickly extend the stored tail, so only the early
    # append bursts qualify for the tail path — a handful is enough here;
    # test_pure_append_workload_is_splice_free covers it in depth.
    assert STATS.tail_appends - before["tail_appends"] >= 5
    assert STATS.splices - before["splices"] > 20
    assert STATS.prefix_trims - before["prefix_trims"] >= 10


def test_set_prefix_reaches_every_boundary_case() -> None:
    """Front-trims landing mid-run (equal and different value), in a gap,
    flush against an equal run, and past the tail — each checked against
    the dict model and the invariants."""
    layout = [(TickRange(0, 10), 1), (TickRange(10, 20), 2), (TickRange(30, 40), 1)]
    cases = {
        "inside the equal first run": (5, 1),
        "mid-run, different value": (15, 1),
        "mid-run, equal value": (15, 2),
        "in a gap": (25, 1),
        "flush against an equal run": (30, 1),
        "flush against a different run": (30, 2),
        "at the tail": (40, 3),
        "past the tail": (50, 3),
    }
    for name, (hi, value) in cases.items():
        imap: IntervalMap[int] = IntervalMap(default=DEFAULT)
        model = DictModel()
        for rng, v in layout:
            imap.set_range(rng, v)
            model.set_range(rng, v)
        assert imap.set_prefix(hi, value) == model.set_prefix(hi, value), name
        imap.check_invariants()
        assert imap.to_dict(0, SPAN) == model.to_dict(0, SPAN), name
    empty: IntervalMap[int] = IntervalMap(default=DEFAULT)
    assert empty.set_prefix(7, 2) == (7, [])
    assert list(empty.runs()) == [(TickRange(0, 7), 2)]


def _is_default(value: int) -> bool:
    return value == DEFAULT


def _is_set(value: int) -> bool:
    return value != DEFAULT


def _is_low(value: int) -> bool:
    return value <= 1  # true on the default and on one stored value


def _is_high(value: int) -> bool:
    return value >= 2


SCAN_SPAN = 36


@pytest.mark.parametrize("seed", range(6))
def test_scans_match_dict_model(seed: int) -> None:
    """``first_with`` / ``ranges_with`` against the per-tick dict for every
    ``(lo, hi)`` — ``hi`` absent or given, ``lo`` inside a run, in a gap and
    past the tail, predicate true or false on the default value.  These are
    the branches the old run generator used to hide."""
    rng = random.Random(0x5CA7 + seed)
    imap: IntervalMap[int] = IntervalMap(default=DEFAULT)
    model = DictModel()
    for __ in range(rng.randint(0, 9)):  # seed 0 may leave the map empty
        start = rng.randint(0, SCAN_SPAN - 1)
        op = (
            "set_range",
            TickRange(start, min(SCAN_SPAN, start + rng.randint(1, 6))),
            rng.randint(0, 3),
        )
        _apply_op(imap, op)
        _apply_op(model, op)
    seen = set()
    for pred in (_is_default, _is_set, _is_low, _is_high):
        for lo in range(SCAN_SPAN + 4):
            where = (
                "run" if imap.get(lo) != DEFAULT
                else "gap" if lo < (imap.span().stop if imap else 0)
                else "tail"
            )
            seen.add((where, pred(DEFAULT)))
            assert imap.first_with(pred, lo) == model.first_with(pred, lo), (
                pred.__name__, lo
            )
            for hi in range(SCAN_SPAN + 5):
                assert imap.first_with(pred, lo, hi) == model.first_with(
                    pred, lo, hi
                ), (pred.__name__, lo, hi)
                assert imap.ranges_with(pred, lo, hi) == model.ranges_with(
                    pred, lo, hi
                ), (pred.__name__, lo, hi)
    wheres = {"run", "gap", "tail"} if imap.run_count() > 1 else {w for w, __ in seen}
    assert seen == {(w, d) for w in wheres for d in (True, False)}


def test_scans_count_runs_inspected() -> None:
    """``STATS.scan_steps`` grows by the runs a scan looked at, not by the
    runs stored: a scan that bisects into a 1000-run map touches only the
    runs in its range."""
    imap: IntervalMap[int] = IntervalMap(default=DEFAULT)
    for i in range(1000):
        imap.set_range(TickRange(i * 4, i * 4 + 2), 1 + i % 2)
    before = STATS.scan_steps
    assert imap.ranges_with(_is_set, 3000, 3010) == [
        TickRange(3000, 3002), TickRange(3004, 3006), TickRange(3008, 3010)
    ]
    assert STATS.scan_steps - before == 3
    assert imap.first_with(_is_high, 3001, 3990) == 3004
    assert STATS.scan_steps - before == 5  # the run under 3001, then the hit


def test_pure_append_workload_is_splice_free() -> None:
    """The motivating claim: a monotone publish pattern does zero splices."""
    imap: IntervalMap[int] = IntervalMap(default=DEFAULT)
    model = DictModel()
    before = STATS.splices
    for i in range(300):
        r = TickRange(i * 3, i * 3 + 3)
        op: Op = ("set_range", r, 1 + (i % 2))
        _apply_op(imap, op)
        _apply_op(model, op)
    imap.check_invariants()
    assert STATS.splices == before
    assert imap.to_dict(0, 40) == model.to_dict(0, 40)
    assert imap.get(299 * 3 + 2) == model.get(299 * 3 + 2)
