"""Filter and merge edge operations of the knowledge graph.

Knowledge propagates downstream through hyperedges labelled *filter* or
*merge* (paper section 2.4):

* a **filter** passes a D tick unchanged if its payload matches the filter
  predicate, otherwise converts it to F; F passes unchanged;
* a **merge** passes any D tick to its output, and passes F only when
  *all* inputs are F.

Curiosity propagates upstream in reverse: an A tick propagates to the
predecessor (filter) or all predecessors (merge) once all downstream
streams are A; a C tick propagates to a filter's predecessor, and to those
predecessors of a merge that have Q ticks.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from .lattice import K
from .messages import DataTick, KnowledgeMessage
from .streams import KnowledgeStream
from .ticks import Tick, TickRange, merge_ranges

__all__ = ["FilterEdge", "MergeView", "MATCH_ALL"]

#: Predicate over message payloads.
Predicate = Callable[[Any], bool]


def MATCH_ALL(_payload: Any) -> bool:
    """The always-true filter predicate (an unfiltered edge)."""
    return True


class FilterEdge:
    """A filter edge: transforms knowledge messages for one downstream path.

    The predicate is evaluated on D payloads; non-matching D ticks are
    converted to F runs in the output message.  A first-time data message
    whose only D tick is filtered out becomes a first-time silence message
    (paper section 3.1).
    """

    __slots__ = ("predicate", "name")

    def __init__(self, predicate: Predicate = MATCH_ALL, name: str = ""):
        self.predicate = predicate
        self.name = name or getattr(predicate, "__name__", "filter")

    def matches(self, payload: Any) -> bool:
        return self.predicate(payload)

    def apply(self, message: KnowledgeMessage) -> KnowledgeMessage:
        """The filtered image of a knowledge message.

        D ticks with matching payloads pass through; the rest become F.
        The final prefix and explicit F ranges pass unchanged.
        """
        if message.is_silence:
            return message
        passed: List[DataTick] = []
        filtered: List[TickRange] = []
        for data in message.data:
            if self.predicate(data.payload):
                passed.append(data)
            else:
                filtered.append(TickRange.single(data.tick))
        if not filtered:
            return message
        return KnowledgeMessage(
            pubend=message.pubend,
            fin_prefix=message.fin_prefix,
            f_ranges=tuple(merge_ranges(list(message.f_ranges) + filtered)),
            data=tuple(passed),
            retransmit=message.retransmit,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FilterEdge({self.name})"


class MergeView:
    """A deterministic merge of several knowledge streams.

    Used by total-order subends: each subscriber observes a single merged
    stream whose D ticks interleave the input pubend streams in tick order
    (the inputs place their D ticks on disjoint tick slots, so the merge is
    deterministic — every subscriber of the same merge sees the same
    sequence, paper section 2.3).

    The view is lazy: it answers knowledge queries against the live input
    streams instead of materializing an output stream.
    """

    __slots__ = ("inputs",)

    def __init__(self, inputs: Sequence[KnowledgeStream]):
        if not inputs:
            raise ValueError("merge requires at least one input stream")
        self.inputs = list(inputs)

    def value_at(self, tick: Tick) -> K:
        """Merged knowledge at ``tick``: D if any input has data, F only
        when all inputs are final, otherwise Q."""
        all_final = True
        for stream in self.inputs:
            value = stream.value_at(tick)
            if value == K.D:
                return K.D
            if value != K.F:
                all_final = False
        return K.F if all_final else K.Q

    def doubt_horizon(self) -> Tick:
        """First tick of the merged stream that is neither D nor F.

        A merged tick blocks delivery while *any* input is Q there and no
        input supplies data, so the horizon is computed by scanning the
        interleaved runs of all inputs up to the smallest per-input horizon
        that could still hide a Q.
        """
        horizon = 0
        limit = max(stream.horizon() for stream in self.inputs)
        while horizon < limit:
            value = self.value_at(horizon)
            if value == K.Q:
                return horizon
            # Jump to the end of the shortest current run to avoid
            # tick-by-tick scanning over long F runs.
            step = self._run_stop(horizon)
            horizon = step
        return horizon

    def _run_stop(self, tick: Tick) -> Tick:
        """One past the end of the merged run containing ``tick``.

        For a D tick the run is the single tick.  Otherwise it is bounded
        by the next value change in any input.
        """
        if self.value_at(tick) == K.D:
            return tick + 1
        stop: Optional[Tick] = None
        for stream in self.inputs:
            current = stream.value_at(tick)
            nxt = stream._map.first_with(  # noqa: SLF001 - intimate by design
                lambda v, cur=current: v != cur, tick + 1
            )
            if nxt is None:
                nxt = max(stream.horizon(), tick + 1)
            stop = nxt if stop is None else min(stop, nxt)
        return max(stop if stop is not None else tick + 1, tick + 1)

    def d_ticks_below(self, horizon: Tick, lo: Tick = 0) -> List[Tuple[Tick, Any]]:
        """All merged (tick, payload) pairs in ``[lo, horizon)``, sorted."""
        out: List[Tuple[Tick, Any]] = []
        if horizon <= lo:
            return out
        rng = TickRange(lo, horizon)
        for stream in self.inputs:
            out.extend(stream.d_ticks(rng))
        out.sort(key=lambda pair: pair[0])
        return out
