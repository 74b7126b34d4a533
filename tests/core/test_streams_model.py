"""Differential model test for :class:`repro.core.streams.Stream`.

``Stream`` stores knowledge (``{Q, D, F}``) and only the *curious* runs of
its curiosity; anti-curiosity is read off knowledge finality.  The
reference model here is the obvious one the paper describes — a per-tick
``(K, C)`` pair with the F ⇔ A linkage written out longhand ("a tick whose
knowledge state becomes F is assigned a curiosity of A and vice-versa") —
and seeded random sequences over every mutator are driven through both.
After **every** operation the two must agree on each tick's knowledge and
curiosity, the curious ranges, the ack prefix (which must equal the final
prefix — a cached cursor in the stream, a scan from tick 0 in the model),
the number of payloads held, every return value (``set_curious``'s is the
nack-consolidation contract), and ``check_invariants`` must hold.  A
second, state-directed mix aims prefix-form finalizations at every place
the cursor's front-trim can land.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.core.intervals import STATS
from repro.core.lattice import C, K
from repro.core.streams import Stream
from repro.core.ticks import TickRange, merge_ranges

SPAN = 60  # model universe is ticks [0, SPAN)
WHOLE = TickRange(0, SPAN)


def _maximal_ranges(ticks: List[int]) -> List[TickRange]:
    return merge_ranges(TickRange.single(t) for t in ticks)


class PairModel:
    """The reference implementation: ``{tick: (K, C)}`` over [0, SPAN)."""

    def __init__(self) -> None:
        self.k: Dict[int, K] = {}
        self.c: Dict[int, C] = {}

    def k_at(self, tick: int) -> K:
        return self.k.get(tick, K.Q)

    def c_at(self, tick: int) -> C:
        return self.c.get(tick, C.N)

    # -- knowledge, with the linkage longhand ------------------------------

    def accumulate_data(self, tick: int, payload: str) -> bool:
        if self.k_at(tick) != K.Q:
            return False  # known D is a no-op; D + F = D* lowers to F
        self.k[tick] = K.D
        return True

    def accumulate_final(self, rng: TickRange) -> bool:
        changed = False
        for t in rng:
            changed = changed or self.k_at(t) != K.F
            self.k[t] = K.F
            self.c[t] = C.A  # ... becomes F is assigned a curiosity of A
        return changed

    set_ack = accumulate_final  # ... and vice-versa

    def forget(self, rng: TickRange) -> None:
        for t in rng:
            if self.k_at(t) == K.F:
                self.c[t] = C.N  # no longer final, so no longer anti-curious
            self.k[t] = K.Q

    def forget_all(self) -> None:
        self.k.clear()
        self.c.clear()

    # -- curiosity ----------------------------------------------------------

    def set_curious(self, rng: TickRange) -> List[TickRange]:
        fresh = [t for t in rng if self.c_at(t) == C.N]
        for t in fresh:
            self.c[t] = C.C
        return _maximal_ranges(fresh)

    def clear_curious(self, rng: TickRange) -> None:
        for t in rng:
            if self.c_at(t) == C.C:
                self.c[t] = C.N

    def forget_curiosity(self) -> None:
        self.clear_curious(WHOLE)

    # -- derived views --------------------------------------------------------

    def curious_ranges(self) -> List[TickRange]:
        return _maximal_ranges([t for t in WHOLE if self.c_at(t) == C.C])

    def final_prefix(self) -> int:
        return next(t for t in range(SPAN + 1) if self.k_at(t) != K.F)


Op = Tuple  # (name, *args)


def _random_ops(rng: random.Random, count: int) -> List[Op]:
    ops: List[Op] = []
    for __ in range(count):
        start = rng.randint(0, SPAN - 1)
        span = TickRange(start, min(SPAN, start + rng.randint(1, 12)))
        roll = rng.random()
        if roll < 0.25:
            ops.append(("accumulate_data", start, f"m{start}"))
        elif roll < 0.40:
            ops.append(("accumulate_final", span))
        elif roll < 0.50:
            ops.append(("set_ack", TickRange(0, span.stop)))  # acks are prefixes
        elif roll < 0.70:
            ops.append(("set_curious", span))
        elif roll < 0.80:
            ops.append(("clear_curious", span))
        elif roll < 0.85:
            ops.append(("forget_curiosity",))
        elif roll < 0.97:
            ops.append(("forget", span))
        else:
            ops.append(("forget_all",))
    return ops


def _apply(stream: Stream, model: PairModel, op: Op):
    """Apply ``op`` to both; returns the (got, want) return values."""
    name, args = op[0], op[1:]
    if name == "forget":  # knowledge-only: soft-state loss under the marks
        return stream.knowledge.forget(*args), model.forget(*args)
    if name in ("clear_curious", "forget_curiosity"):
        return getattr(stream.curiosity, name)(*args), getattr(model, name)(*args)
    return getattr(stream, name)(*args), getattr(model, name)(*args)


def _check_agreement(stream: Stream, model: PairModel, where: str) -> None:
    stream.check_invariants()
    for t in WHOLE:
        assert stream.knowledge.value_at(t) == model.k_at(t), f"K at {t} {where}"
        assert stream.curiosity.value_at(t) == model.c_at(t), f"C at {t} {where}"
        assert stream.knowledge.has_payload(t) == (model.k_at(t) == K.D), where
    # No payload leaked or over-dropped (by the front-trim in particular).
    d_ticks = sum(1 for t in WHOLE if model.k_at(t) == K.D)
    assert stream.knowledge.d_tick_count() == d_ticks, where
    assert stream.curiosity.curious_ranges(WHOLE) == model.curious_ranges(), where
    assert stream.curiosity.curious_ranges() == model.curious_ranges(), where
    assert stream.curiosity.ack_prefix() == model.final_prefix(), where
    assert stream.knowledge.final_prefix() == model.final_prefix(), where


@pytest.mark.parametrize("seed", range(20))
def test_random_ops_match_pair_model(seed: int) -> None:
    rng = random.Random(0xA15F00 + seed)
    stream, model = Stream(), PairModel()
    for step, op in enumerate(_random_ops(rng, 150)):
        where = f"after step {step} {op[0]}{op[1:]}"
        got, want = _apply(stream, model, op)
        assert got == want, f"return value {where}"
        _check_agreement(stream, model, where)


def _prefix_op(rng: random.Random, model: PairModel) -> Tuple[str, Op]:
    """One op aimed at the final-prefix cursor, chosen from the model's
    current state; returns ``(where it lands, op)``."""
    fin = model.final_prefix()

    def mid_run(value: K) -> List[int]:
        # Ticks above the prefix with ``value`` on both sides of the cut.
        return [
            p for p in range(fin + 1, SPAN)
            if model.k_at(p - 1) == value and model.k_at(p) == value
        ]

    flush_f = [
        p for p in range(fin + 1, SPAN)
        if model.k_at(p) == K.F and model.k_at(p - 1) != K.F
    ]
    choices = [("above", rng.randint(fin + 1, SPAN))] if fin < SPAN else []
    if fin > 0:
        choices.append(("at", fin))
        choices.append(("below", rng.randint(1, fin)))
        start = rng.randint(0, fin - 1)
        stop = rng.randint(start + 1, min(SPAN, fin + 3))
        choices.append(("forget-below", TickRange(start, stop)))
    for name, landing in (
        ("mid-D", mid_run(K.D)), ("mid-Q", mid_run(K.Q)), ("flush-F", flush_f)
    ):
        if landing:
            choices.append((name, rng.choice(landing)))
    if rng.random() < 0.03:
        return "forget-all", ("forget_all",)
    name, arg = rng.choice(choices)
    if name == "forget-below":
        return name, ("forget", arg)
    return name, ("accumulate_final", TickRange(0, arg))


def _directed_ops(rng: random.Random, model: PairModel, count: int):
    """Random ops (which build D runs, gaps and F islands above the prefix)
    interleaved one for one with cursor-directed ones."""
    background = _random_ops(rng, count)
    for op in background:
        if op[0] == "accumulate_data" and op[1] + 1 < SPAN:
            yield "random", op
            # Adjacent data, so D runs longer than one tick exist.
            yield "random", ("accumulate_data", op[1] + 1, f"m{op[1] + 1}")
        else:
            yield "random", op
        yield _prefix_op(rng, model)


@pytest.mark.parametrize("seed", range(20))
def test_prefix_ops_match_pair_model(seed: int) -> None:
    rng = random.Random(0xF1F0 + seed)
    stream, model = Stream(), PairModel()
    for step, (landing, op) in enumerate(_directed_ops(rng, model, 80)):
        where = f"after step {step} {op[0]}{op[1:]} ({landing})"
        got, want = _apply(stream, model, op)
        assert got == want, f"return value {where}"
        _check_agreement(stream, model, where)


def test_prefix_ops_reach_every_landing() -> None:
    """The directed mix must land the front-trim everywhere it can —
    otherwise the differential silently stops covering a branch."""
    rng = random.Random(0xF1F0)
    model = PairModel()
    landings: Dict[str, int] = {}
    for landing, op in _directed_ops(rng, model, 80):
        landings[landing] = landings.get(landing, 0) + 1
        getattr(model, op[0])(*op[1:])
    for name in (
        "below", "at", "above", "mid-D", "mid-Q", "flush-F", "forget-below",
        "forget-all",
    ):
        assert landings.get(name, 0) >= 2, (name, landings)


def test_acking_each_publication_performs_no_general_splice() -> None:
    """The steady-state ack pattern — one D tick at the prefix, then the
    prefix moved over it — is a tail append plus a front-trim, never the
    general splice (1000 of them before the prefix was a cursor)."""
    stream = Stream()
    before = STATS.snapshot()
    for t in range(1000):
        assert stream.accumulate_data(t, f"m{t}")
        assert stream.accumulate_final(TickRange(0, t + 1))
    assert STATS.splices == before["splices"]
    assert STATS.prefix_trims - before["prefix_trims"] == 1000
    assert stream.knowledge.final_prefix() == 1000
    assert stream.knowledge.run_count() == 1
    assert stream.knowledge.d_tick_count() == 0
    stream.check_invariants()


def test_op_mix_reaches_every_curiosity_value() -> None:
    """The mix must put C marks under arriving finality and forget final
    ticks — otherwise the differential silently stops covering the
    linkage."""
    rng = random.Random(0xA15F00)
    model = PairModel()
    seen = set()
    finalized_curious = forgot_final = 0
    for op in _random_ops(rng, 150):
        if op[0] in ("accumulate_final", "set_ack"):
            finalized_curious += any(model.c_at(t) == C.C for t in op[1])
        if op[0] == "forget":
            forgot_final += any(model.k_at(t) == K.F for t in op[1])
        getattr(model, op[0])(*op[1:])
        seen.update(model.c_at(t) for t in WHOLE)
    assert seen == {C.N, C.C, C.A}
    assert finalized_curious >= 3 and forgot_final >= 3
