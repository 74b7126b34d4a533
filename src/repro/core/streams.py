"""Knowledge and curiosity streams.

Every node of the knowledge graph holds a *stream*: a knowledge stream
(which ticks carry data, which are silent/final) plus a curiosity stream
(how urgently downstream consumers need each tick).  This module implements
both as run-length encoded :class:`~repro.core.intervals.IntervalMap` maps,
together with the operational normalizations of section 3 of the paper:

* only ``Q``, ``D`` and ``F`` are materialized — incoming silence (``S``)
  and delivered-data (``D*``) values are automatically lowered to ``F``
  ("In the current algorithm, any S or D* tick is automatically lowered
  to F");
* payloads of D ticks are stored out-of-band so runs coalesce;
* anti-curiosity (``A``) is never stored: a tick is ``A`` exactly where
  its knowledge is ``F``, so :class:`CuriosityStream` reads it off the
  :class:`KnowledgeStream` it annotates and keeps only the ``C`` runs;
* any stream except a pubend's may *forget* ranges (drop them to ``Q``),
  modelling soft state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .intervals import IntervalMap
from .lattice import C, K, k_lub
from .ticks import Tick, TickRange

__all__ = ["KnowledgeStream", "CuriosityStream", "Stream"]


def _lower(value: K) -> K:
    """Operational lowering: S and D* collapse to F (paper section 2.1)."""
    if value in (K.S, K.DSTAR):
        return K.F
    return value


# Module-level predicates for the hot IntervalMap queries, so the per-call
# closure allocation the old inline lambdas paid is gone from the hot path.
def _is_q(value: K) -> bool:
    return value == K.Q


def _is_final(value: K) -> bool:
    return value == K.F


def _not_final(value: K) -> bool:
    return value != K.F


def _is_curious(value: C) -> bool:
    return value == C.C


def _is_neutral(value: C) -> bool:
    return value == C.N


def _is_d(value: K) -> bool:
    return value == K.D


class KnowledgeStream:
    """Per-tick knowledge with payloads for D ticks.

    The stream conceptually covers ``[0, inf)``; unmentioned ticks are ``Q``.
    All mutation goes through *accumulation* (monotone upward: lattice least
    upper bound, then lowered into {Q, D, F}) or *forgetting* (monotone
    downward: drop to Q).

    The final prefix is a cursor: ``_fin`` caches the stop of the stored
    ``[0, fin)`` F run (0 when tick 0 is not final), so reading it, and
    finalizing a range that lies inside it, cost no scan.
    """

    __slots__ = ("_map", "_payloads", "_fin")

    def __init__(self) -> None:
        self._map: IntervalMap[K] = IntervalMap(K.Q)
        self._payloads: Dict[Tick, Any] = {}
        self._fin: Tick = 0

    # -- queries --------------------------------------------------------

    def value_at(self, tick: Tick) -> K:
        return self._map.get(tick)

    def payload_at(self, tick: Tick) -> Any:
        """The payload of a D tick (KeyError for non-D ticks)."""
        return self._payloads[tick]

    def has_payload(self, tick: Tick) -> bool:
        return tick in self._payloads

    def final_prefix(self) -> Tick:
        """First tick ``p`` such that tick ``p`` is not final; all ticks
        below ``p`` are F."""
        return self._fin

    def horizon(self) -> Tick:
        """One past the last non-Q tick (0 when the stream is empty)."""
        span = self._map.span()
        return span.stop if span is not None else 0

    def doubt_horizon(self) -> Tick:
        """The first Q tick.

        All ticks below the doubt horizon are D or F, so D messages below
        it may be delivered in order (paper section 2.3).
        """
        horizon = self.horizon()
        first_q = self._map.first_with(_is_q, self._fin, horizon)
        return first_q if first_q is not None else horizon

    def gaps(self) -> List[TickRange]:
        """Maximal Q ranges strictly below the horizon.

        These are the gaps whose persistence triggers curiosity (GCT).
        """
        return self.q_ranges(self._fin, self.horizon())

    def q_ranges(self, lo: Tick, hi: Tick) -> List[TickRange]:
        """Maximal Q sub-ranges of ``[lo, hi)`` (what a nack may ask for)."""
        return self._map.ranges_with(_is_q, lo, hi)

    def final_ranges(self, lo: Tick, hi: Tick) -> List[TickRange]:
        """Maximal F sub-ranges of ``[lo, hi)`` (what silence may answer)."""
        return self._map.ranges_with(_is_final, lo, hi)

    def runs(self) -> Iterator[Tuple[TickRange, K]]:
        """Stored non-Q runs, in order."""
        return self._map.runs()

    def iter_runs(self, lo: Tick, hi: Tick) -> Iterator[Tuple[TickRange, K]]:
        return self._map.iter_runs(lo, hi)

    def ranges_with(
        self, pred: Callable[[K], bool], lo: Tick, hi: Tick
    ) -> List[TickRange]:
        return self._map.ranges_with(pred, lo, hi)

    def d_ticks(self, rng: TickRange) -> List[Tuple[Tick, Any]]:
        """All (tick, payload) pairs with a D value inside ``rng``."""
        out: List[Tuple[Tick, Any]] = []
        for run, value in self._map.iter_runs(rng.start, rng.stop):
            if value == K.D:
                for tick in run:
                    out.append((tick, self._payloads.get(tick)))
        return out

    def d_tick_count(self) -> int:
        return len(self._payloads)

    def run_count(self) -> int:
        """Stored non-Q runs — the stream's actual memory footprint."""
        return self._map.run_count()

    # -- accumulation (monotone up) --------------------------------------

    def accumulate_data(self, tick: Tick, payload: Any) -> bool:
        """Accumulate knowledge of a data message at ``tick``.

        Returns True when this tick's knowledge actually changed (Q -> D);
        re-receiving a known D is a no-op, and data arriving for an
        already-final tick is dropped (D + F = D* which lowers to F).
        """
        old = self._map.get(tick)
        new = _lower(k_lub(old, K.D))
        if old == K.D and new == K.D:
            return False
        if new == old:
            return False
        self._map.set_value(tick, new)
        if new == K.D:
            self._payloads[tick] = payload
            return True
        return False

    def accumulate_final(self, rng: TickRange) -> bool:
        """Accumulate finality (F) over ``rng``.

        Covers both incoming silence and final prefixes: every tick in the
        range moves up the lattice via lub with F, so Q -> F, F -> F and
        D -> D* (lowered to F, payload dropped — the data is known to be
        unneeded downstream).  Returns True when anything changed.

        A range that starts inside or flush against the final prefix (every
        ack, every message's ``fin_prefix``) just advances the prefix
        cursor: nothing to do when it also stops inside, else one front-trim
        of the map that hands back the D runs it swallowed.
        """
        fin = self._fin
        if rng.stop <= fin:
            return False
        if rng.start <= fin:
            self._fin, replaced = self._map.set_prefix(rng.stop, K.F)
            for start, stop, __ in replaced:  # non-F stored runs are D
                for tick in range(start, stop):
                    self._payloads.pop(tick, None)
            return True
        changed = self._map.first_with(_not_final, rng.start, rng.stop)
        if changed is None:
            return False
        if self._payloads:
            # Walk only the D runs inside the range instead of scanning
            # the whole payload dict — the pubend's bracket-finalize hot
            # loop finalizes payload-free ranges, which this makes O(log n).
            for run in self._map.ranges_with(_is_d, rng.start, rng.stop):
                for tick in run:
                    self._payloads.pop(tick, None)
        self._map.set_range(rng, K.F)
        return True

    def accumulate_silence(self, rng: TickRange) -> None:
        """Accumulate an *abstract-model* silence claim over ``rng``.

        Unlike :meth:`accumulate_final`, combining silence with existing
        data is a contradiction and raises
        :class:`~repro.core.lattice.KnowledgeConflictError`.  The operational
        protocol never sends S (silence travels as F); this entry point
        exists for the abstract model and its tests.
        """
        for run, value in list(self._map.iter_runs(rng.start, rng.stop)):
            lowered = _lower(k_lub(value, K.S))
            if lowered != value:
                self._map.set_range(run, lowered)
        self._fin = self._scan_final_prefix()

    # -- forgetting (monotone down) ---------------------------------------

    def forget(self, rng: TickRange) -> None:
        """Drop every tick in ``rng`` to Q (soft-state loss or discard)."""
        if self._payloads:
            for run in self._map.ranges_with(_is_d, rng.start, rng.stop):
                for tick in run:
                    self._payloads.pop(tick, None)
        self._map.clear_range(rng)
        if rng.start < self._fin:
            self._fin = rng.start

    def forget_all(self) -> None:
        """Drop the entire stream (broker crash)."""
        self._payloads.clear()
        self._map = IntervalMap(K.Q)
        self._fin = 0

    def _scan_final_prefix(self) -> Tick:
        """The final prefix the long way: a scan from tick 0."""
        first_nonfinal = self._map.first_with(_not_final, 0)
        return first_nonfinal if first_nonfinal is not None else self.horizon()

    def check_invariants(self) -> None:
        self._map.check_invariants()
        scanned = self._scan_final_prefix()
        assert self._fin == scanned, f"final-prefix cursor {self._fin} != scan {scanned}"
        for tick, __ in self._payloads.items():
            assert self._map.get(tick) == K.D, f"payload at non-D tick {tick}"
        for run, value in self._map.runs():
            if value == K.D:
                for tick in run:
                    assert tick in self._payloads, f"D tick {tick} without payload"


class CuriosityStream:
    """Per-tick curiosity of the ticks of one :class:`KnowledgeStream`.

    Only ``C`` runs are stored; unmentioned ticks are neutral (``N``).
    ``A`` (anti-curious) is not a stored value but knowledge finality
    read from this side — the paper's "a tick whose knowledge state
    becomes F is assigned a curiosity of A and vice-versa" — so it is
    absorbing exactly as long as the knowledge stays F: an acknowledged
    tick can never become curious, the data was delivered (or finalized)
    and will not be needed.
    """

    __slots__ = ("_map", "_knowledge")

    def __init__(self, knowledge: KnowledgeStream) -> None:
        self._knowledge = knowledge
        self._map: IntervalMap[C] = IntervalMap(C.N)

    def value_at(self, tick: Tick) -> C:
        if self._knowledge.value_at(tick) == K.F:
            return C.A
        return self._map.get(tick)

    def ack_prefix(self) -> Tick:
        """First tick that is not A; all ticks below it are acknowledged."""
        return self._knowledge.final_prefix()

    def set_ack(self, rng: TickRange) -> bool:
        """Acknowledge ``rng``: knowledge finalized (D -> F, payloads
        dropped — this is the soft-state garbage collection; Q -> F too,
        once a range is acked no knowledge about it is needed) and any
        curiosity about it dropped.  Returns True when anything changed."""
        if self._map:
            self._map.clear_range(rng)
        return self._knowledge.accumulate_final(rng)

    def set_curious(self, rng: TickRange) -> List[TickRange]:
        """Mark the not-yet-acknowledged, not-yet-curious parts of ``rng``
        curious; ticks already final are never nacked upstream.

        Returns the sub-ranges that actually transitioned (N -> C).  The
        caller uses a non-empty return to decide whether an upstream nack is
        needed — this is exactly the paper's nack-consolidation rule: "a
        nack message is propagated upstream only if some C tick accumulated
        in istream was not already C".
        """
        fresh: List[TickRange] = []
        for piece in self.unacked_ranges(rng):
            fresh.extend(self._map.ranges_with(_is_neutral, piece.start, piece.stop))
        for piece in fresh:
            self._map.set_range(piece, C.C)
        return fresh

    def curious_ranges(self, rng: Optional[TickRange] = None) -> List[TickRange]:
        """Sub-ranges of ``rng`` (default: of the whole stream) currently
        marked C.  With nothing curious — the failure-free case — there is
        nothing to scan."""
        if rng is None:
            rng = self._map.span()
            if rng is None:
                return []
        return self._map.ranges_with(_is_curious, rng.start, rng.stop)

    def acked_ranges(self, rng: TickRange) -> List[TickRange]:
        """Sub-ranges of ``rng`` that are A (knowledge F)."""
        return self._knowledge.final_ranges(rng.start, rng.stop)

    def unacked_ranges(self, rng: TickRange) -> List[TickRange]:
        """Sub-ranges of ``rng`` that are not A (i.e. N or C)."""
        return self._knowledge.ranges_with(_not_final, rng.start, rng.stop)

    def clear_curious(self, rng: TickRange) -> None:
        """Lower C ticks in ``rng`` back to N (curiosity serviced; the
        downstream will re-nack if the answer is lost)."""
        if self._map:
            self._map.clear_range(rng)

    def forget_curiosity(self) -> None:
        """Lower every C tick back to N (the "fresh nack" rule).

        The broker runs this periodically (every minimum-repetition
        interval) so that repeated nacks from the same subend are not
        swallowed by consolidation (paper section 3.1).
        """
        if self._map:
            self._map = IntervalMap(C.N)

    #: With only C stored, forgetting everything is the same operation.
    forget_all = forget_curiosity

    def runs(self) -> Iterator[Tuple[TickRange, C]]:
        return self._map.runs()

    def run_count(self) -> int:
        """Stored C runs — the stream's actual memory footprint, and an
        O(1) "is anything curious?"."""
        return self._map.run_count()

    def check_invariants(self) -> None:
        self._map.check_invariants()
        for run, __ in self._map.runs():
            assert not self.acked_ranges(run), f"C mark on final ticks in {run}"


class Stream:
    """A knowledge stream and the curiosity stream that annotates it.

    All operational stream state in brokers (istreams and ostreams) is a
    :class:`Stream`; the F ⇔ A linkage holds by construction because A is
    read off ``knowledge``, never written.
    """

    __slots__ = ("knowledge", "curiosity")

    def __init__(self) -> None:
        self.knowledge = KnowledgeStream()
        self.curiosity = CuriosityStream(self.knowledge)

    def accumulate_data(self, tick: Tick, payload: Any) -> bool:
        """Accumulate a D tick; returns True when knowledge changed (data
        for an already-acknowledged tick is not needed and is dropped)."""
        return self.knowledge.accumulate_data(tick, payload)

    def accumulate_final(self, rng: TickRange) -> bool:
        """Accumulate F over ``rng``, which thereby becomes anti-curious:
        finalizing and acknowledging are one operation."""
        return self.curiosity.set_ack(rng)

    #: The same operation under its protocol name.
    set_ack = accumulate_final

    def set_curious(self, rng: TickRange) -> List[TickRange]:
        """Mark ``rng`` curious where it is neither final nor already
        curious; returns the fresh (N -> C) sub-ranges."""
        return self.curiosity.set_curious(rng)

    def forget_all(self) -> None:
        self.knowledge.forget_all()
        self.curiosity.forget_all()

    def check_invariants(self) -> None:
        self.knowledge.check_invariants()
        self.curiosity.check_invariants()
