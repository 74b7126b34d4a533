"""Differential model test for :class:`repro.core.streams.Stream`.

``Stream`` stores knowledge (``{Q, D, F}``) and only the *curious* runs of
its curiosity; anti-curiosity is read off knowledge finality.  The
reference model here is the obvious one the paper describes — a per-tick
``(K, C)`` pair with the F ⇔ A linkage written out longhand ("a tick whose
knowledge state becomes F is assigned a curiosity of A and vice-versa") —
and seeded random sequences over every mutator are driven through both.
After **every** operation the two must agree on each tick's knowledge and
curiosity, the curious ranges, the ack prefix (which must equal the final
prefix), every return value (``set_curious``'s is the nack-consolidation
contract), and ``check_invariants`` must hold.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

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


@pytest.mark.parametrize("seed", range(20))
def test_random_ops_match_pair_model(seed: int) -> None:
    rng = random.Random(0xA15F00 + seed)
    stream, model = Stream(), PairModel()
    for step, op in enumerate(_random_ops(rng, 150)):
        where = f"after step {step} {op[0]}{op[1:]}"
        got, want = _apply(stream, model, op)
        assert got == want, f"return value {where}"
        stream.check_invariants()
        for t in WHOLE:
            assert stream.knowledge.value_at(t) == model.k_at(t), f"K at {t} {where}"
            assert stream.curiosity.value_at(t) == model.c_at(t), f"C at {t} {where}"
            assert stream.knowledge.has_payload(t) == (model.k_at(t) == K.D), where
        assert stream.curiosity.curious_ranges(WHOLE) == model.curious_ranges(), where
        assert stream.curiosity.curious_ranges() == model.curious_ranges(), where
        assert stream.curiosity.ack_prefix() == model.final_prefix(), where
        assert stream.knowledge.final_prefix() == model.final_prefix(), where


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
