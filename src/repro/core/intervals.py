"""A coalescing interval map over the tick axis.

Every stream in the knowledge model conceptually assigns a value to *every*
tick in ``[0, inf)``.  In practice knowledge and curiosity are constant over
long runs of ticks (an ever-growing final prefix, ranges of silence, bursts
of curiosity), so streams are stored as run-length encoded interval maps:
a sorted list of disjoint, coalesced ``(start, stop, value)`` runs, with
every tick not covered by a run having the map's *default* value.

The map is value-agnostic; knowledge streams use it with :class:`~repro.core.lattice.K`
values (default ``Q``) and curiosity streams with :class:`~repro.core.lattice.C`
values (default ``N``).  Payload data for D ticks is kept out of the map
(streams store payloads in a side dict keyed by tick) so that runs coalesce
freely.

Complexity: point queries are ``O(log r)``; range scans and range updates
are ``O(log r + k)`` where ``r`` is the number of runs and ``k`` the number
of runs overlapping the range, via :mod:`bisect` plus an index loop or a
local splice.  The two update patterns the protocol repeats for every
publication never pay for the general splice: an update at or past the
stored tail (bracket-finalize, then append one D tick) is an O(1)
append/extend, and an update of the whole prefix ``[0, hi)`` (an ack
advancing the final prefix) is a front-trim (:meth:`IntervalMap.set_prefix`).

Work is counted in :data:`STATS` (tail appends, prefix trims, general
splices, runs inspected by scans), which the benchmark-regression gate
uses as a deterministic work metric.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

from .ticks import Tick, TickRange

__all__ = ["IntervalMap", "IntervalMapStats", "STATS"]

V = TypeVar("V")

_MISSING = object()


class IntervalMapStats:
    """Process-wide operation counters for every :class:`IntervalMap`.

    ``tail_appends`` counts updates taken by the O(1) tail path,
    ``prefix_trims`` counts :meth:`IntervalMap.set_prefix` front-trims and
    ``splices`` counts general splice updates; ``scan_steps`` counts the
    stored runs ``first_with``/``ranges_with`` inspected.  All are
    deterministic functions of the op sequence, so ``python -m repro bench``
    snapshots them as regression-gate counters.
    """

    __slots__ = ("splices", "tail_appends", "prefix_trims", "scan_steps")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.splices = 0
        self.tail_appends = 0
        self.prefix_trims = 0
        self.scan_steps = 0

    @property
    def updates(self) -> int:
        return self.splices + self.tail_appends + self.prefix_trims

    def snapshot(self) -> dict:
        return {
            "splices": self.splices,
            "tail_appends": self.tail_appends,
            "prefix_trims": self.prefix_trims,
            "updates": self.updates,
            "scan_steps": self.scan_steps,
        }


#: Module-wide counter instance (reset via ``STATS.reset()``).
STATS = IntervalMapStats()


class IntervalMap(Generic[V]):
    """Map from tick to value, run-length encoded, with a default value.

    Invariants (checked by :meth:`check_invariants`, exercised heavily by
    the property-based tests):

    * runs are sorted by ``start`` and pairwise disjoint;
    * no run is empty;
    * no run carries the default value;
    * adjacent runs with equal values are coalesced.
    """

    __slots__ = ("default", "_starts", "_stops", "_values")

    def __init__(self, default: V):
        self.default = default
        self._starts: List[Tick] = []
        self._stops: List[Tick] = []
        self._values: List[V] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, tick: Tick) -> V:
        """The value at ``tick`` (the default when no run covers it)."""
        i = bisect_right(self._starts, tick) - 1
        if i >= 0 and tick < self._stops[i]:
            return self._values[i]
        return self.default

    def __bool__(self) -> bool:
        return bool(self._starts)

    def run_count(self) -> int:
        """Number of stored (non-default) runs."""
        return len(self._starts)

    def span(self) -> Optional[TickRange]:
        """The covering range of all non-default runs, or ``None`` if empty."""
        if not self._starts:
            return None
        return TickRange(self._starts[0], self._stops[-1])

    def runs(self) -> Iterator[Tuple[TickRange, V]]:
        """Iterate the stored (non-default) runs in order."""
        for start, stop, value in zip(self._starts, self._stops, self._values):
            yield TickRange(start, stop), value

    def iter_runs(self, lo: Tick, hi: Tick) -> Iterator[Tuple[TickRange, V]]:
        """Iterate runs covering ``[lo, hi)`` completely, default gaps included.

        The yielded ranges partition ``[lo, hi)`` exactly; consecutive
        yielded runs never share a value (gaps are merged with nothing).
        """
        if hi <= lo:
            return
        cursor = lo
        i = max(bisect_right(self._starts, lo) - 1, 0)
        while cursor < hi and i < len(self._starts):
            start, stop, value = self._starts[i], self._stops[i], self._values[i]
            if stop <= cursor:
                i += 1
                continue
            if start >= hi:
                break
            if start > cursor:
                yield TickRange(cursor, min(start, hi)), self.default
                cursor = min(start, hi)
                if cursor >= hi:
                    return
            piece_stop = min(stop, hi)
            yield TickRange(cursor, piece_stop), value
            cursor = piece_stop
            i += 1
        if cursor < hi:
            yield TickRange(cursor, hi), self.default

    def ranges_with(
        self, pred: Callable[[V], bool], lo: Tick, hi: Tick
    ) -> List[TickRange]:
        """All maximal sub-ranges of ``[lo, hi)`` whose value satisfies ``pred``."""
        found: List[TickRange] = []
        if hi <= lo:
            return found
        starts, stops, values = self._starts, self._stops, self._values
        # Stored runs overlapping [lo, hi); everything between them is default.
        first = bisect_right(stops, lo)
        last = bisect_left(starts, hi)
        gap_ok = pred(self.default)
        cursor = lo  # [lo, cursor) is classified
        opened: Optional[Tick] = None  # start of the satisfying range being grown
        for i in range(first, last):
            start = starts[i]
            if start > cursor:
                if gap_ok:
                    if opened is None:
                        opened = cursor
                elif opened is not None:
                    found.append(TickRange(opened, cursor))
                    opened = None
                cursor = start
            if pred(values[i]):
                if opened is None:
                    opened = cursor
            elif opened is not None:
                found.append(TickRange(opened, cursor))
                opened = None
            cursor = stops[i]
        if cursor < hi:
            if gap_ok:
                if opened is None:
                    opened = cursor
            elif opened is not None:
                found.append(TickRange(opened, cursor))
                opened = None
        if opened is not None:
            found.append(TickRange(opened, hi))
        if last > first:
            STATS.scan_steps += last - first
        return found

    def first_with(
        self, pred: Callable[[V], bool], lo: Tick, hi: Optional[Tick] = None
    ) -> Optional[Tick]:
        """The first tick ``>= lo`` (and ``< hi`` if given) whose value satisfies ``pred``.

        When ``hi`` is ``None`` the search extends past the last stored run;
        if ``pred`` holds for the default value the first default tick at or
        after ``lo`` is returned, otherwise ``None``.  That unbounded form
        is for diagnostics and the abstract model, and walks
        :meth:`iter_runs` — the coupling the load benchmark's frozen ledger
        test pins (ROADMAP item 4(a)); per-message callers pass ``hi``.
        """
        starts, stops, values = self._starts, self._stops, self._values
        if hi is None:
            tail = max(lo, stops[-1]) if stops else lo
            for rng, value in self.iter_runs(lo, tail):
                if pred(value):
                    return rng.start
            return tail if pred(self.default) else None
        if hi <= lo:
            return None
        first = bisect_right(stops, lo)
        last = bisect_left(starts, hi)
        gap_ok = pred(self.default)
        cursor = lo  # nothing in [lo, cursor) satisfies pred
        for i in range(first, last):
            start = starts[i]
            if start > cursor:
                if gap_ok:
                    STATS.scan_steps += i - first
                    return cursor
                cursor = start
            if pred(values[i]):
                STATS.scan_steps += i - first + 1
                return cursor
            cursor = stops[i]
        if last > first:
            STATS.scan_steps += last - first
        if gap_ok and cursor < hi:
            return cursor
        return None

    def to_dict(self, lo: Tick, hi: Tick) -> dict:
        """Materialize ``{tick: value}`` over ``[lo, hi)`` (testing helper)."""
        return {t: self.get(t) for t in range(lo, hi)}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def set_range(self, rng: TickRange, value: V) -> None:
        """Overwrite every tick in ``rng`` with ``value``."""
        self._apply(rng, None, value)

    def set_value(self, tick: Tick, value: V) -> None:
        """Overwrite a single tick."""
        self._apply(TickRange.single(tick), None, value)

    def clear_range(self, rng: TickRange) -> None:
        """Reset every tick in ``rng`` to the default value."""
        self._apply(rng, None, self.default)

    def combine_range(self, rng: TickRange, value: V, fn: Callable[[V, V], V]) -> None:
        """Set each tick in ``rng`` to ``fn(old_value, value)``.

        This is the primitive behind knowledge accumulation (``fn`` = lattice
        least upper bound) and curiosity consolidation.
        """
        self._apply(rng, None, value, fn)

    def transform_range(self, rng: TickRange, fn: Callable[[V], V]) -> None:
        """Apply ``fn`` to the existing value of each tick in ``rng``."""
        self._apply(rng, fn)

    def set_prefix(self, hi: Tick, value: V) -> Tuple[Tick, List[Tuple[Tick, Tick, V]]]:
        """Overwrite every tick of ``[0, hi)`` with the non-default ``value``.

        The front-trim: all runs below ``hi`` collapse into one first run,
        which also absorbs an equal-valued run straddling or adjoining
        ``hi``.  Costs a bisect plus the runs swallowed, never the runs
        above ``hi``.  Returns the stop of the resulting first run and the
        overwritten pieces ``(start, stop, old_value)`` whose value differed.
        """
        STATS.prefix_trims += 1
        starts, stops, values = self._starts, self._stops, self._values
        last = bisect_left(starts, hi)  # runs [0, last) start below hi
        replaced = [
            (starts[i], stops[i], values[i])
            for i in range(last)
            if values[i] != value
        ]
        head_starts, head_stops, head_values = [0], [hi], [value]
        if last and stops[last - 1] > hi:
            # The last overlapping run straddles hi: absorb it or keep its tail.
            if values[last - 1] == value:
                head_stops[0] = stops[last - 1]
            else:
                start, stop, old = replaced[-1]
                replaced[-1] = (start, hi, old)
                head_starts.append(hi)
                head_stops.append(stop)
                head_values.append(old)
        elif last < len(starts) and starts[last] == hi and values[last] == value:
            head_stops[0] = stops[last]
            last += 1
        starts[:last] = head_starts
        stops[:last] = head_stops
        values[:last] = head_values
        return head_stops[0], replaced

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply(
        self,
        rng: TickRange,
        fn: Optional[Callable[[V], V]],
        value: V = _MISSING,  # type: ignore[assignment]
        combine: Optional[Callable[[V, V], V]] = None,
    ) -> None:
        """The splice engine behind every range update.

        The new value of a piece with old value ``old`` is
        ``combine(old, value)`` when ``combine`` is given, else ``fn(old)``
        when ``fn`` is given, else ``value`` — so :meth:`set_range` and
        :meth:`combine_range` avoid allocating a closure per call.
        """
        lo, hi = rng.start, rng.stop
        stops = self._stops

        if not stops or lo >= stops[-1]:
            # O(1) tail path: the update range is entirely at or past
            # the stored tail, so only default ticks are touched and no
            # stored run needs splicing.  This is the dominant pubend
            # pattern (bracket-finalize then append D at the growing tail).
            STATS.tail_appends += 1
            if combine is not None:
                new_value = combine(self.default, value)
            elif fn is not None:
                new_value = fn(self.default)
            else:
                new_value = value
            if new_value == self.default:
                return
            values = self._values
            if stops and stops[-1] == lo and values[-1] == new_value:
                stops[-1] = hi  # coalesce with the adjacent tail run
            else:
                self._starts.append(lo)
                stops.append(hi)
                values.append(new_value)
            return

        STATS.splices += 1
        # Indices of stored runs overlapping [lo, hi).
        first = bisect_right(self._stops, lo)
        last = bisect_left(self._starts, hi)  # exclusive

        # Pieces replacing the [first:last) slice: the kept prefix of the
        # first overlapping run, transformed pieces over [lo, hi), and the
        # kept suffix of the last overlapping run.
        pieces: List[Tuple[Tick, Tick, V]] = []
        if first < last and self._starts[first] < lo:
            pieces.append((self._starts[first], lo, self._values[first]))

        cursor = lo
        i = first
        while cursor < hi:
            if i < last and self._starts[i] <= cursor < self._stops[i]:
                piece_stop = min(self._stops[i], hi)
                old = self._values[i]
                if combine is not None:
                    new_value = combine(old, value)
                elif fn is not None:
                    new_value = fn(old)
                else:
                    new_value = value
                pieces.append((cursor, piece_stop, new_value))
                cursor = piece_stop
                if cursor >= self._stops[i]:
                    i += 1
            else:
                gap_stop = self._starts[i] if i < last else hi
                gap_stop = min(gap_stop, hi)
                if combine is not None:
                    new_value = combine(self.default, value)
                elif fn is not None:
                    new_value = fn(self.default)
                else:
                    new_value = value
                pieces.append((cursor, gap_stop, new_value))
                cursor = gap_stop

        if last > first and self._stops[last - 1] > hi:
            pieces.append((hi, self._stops[last - 1], self._values[last - 1]))

        # Drop default-valued pieces and coalesce equal neighbours, folding
        # in the runs immediately before and after the splice.
        kept = [(s, e, v) for (s, e, v) in pieces if v != self.default and s < e]

        splice_from, splice_to = first, last
        if splice_from > 0:
            splice_from -= 1
            kept.insert(
                0,
                (
                    self._starts[splice_from],
                    self._stops[splice_from],
                    self._values[splice_from],
                ),
            )
        if splice_to < len(self._starts):
            kept.append(
                (
                    self._starts[splice_to],
                    self._stops[splice_to],
                    self._values[splice_to],
                )
            )
            splice_to += 1

        coalesced: List[Tuple[Tick, Tick, V]] = []
        for start, stop, value in kept:
            if coalesced and coalesced[-1][1] == start and coalesced[-1][2] == value:
                coalesced[-1] = (coalesced[-1][0], stop, value)
            else:
                coalesced.append((start, stop, value))

        self._starts[splice_from:splice_to] = [p[0] for p in coalesced]
        self._stops[splice_from:splice_to] = [p[1] for p in coalesced]
        self._values[splice_from:splice_to] = [p[2] for p in coalesced]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if internal invariants are violated."""
        prev_stop: Optional[Tick] = None
        prev_value: Optional[V] = None
        for start, stop, value in zip(self._starts, self._stops, self._values):
            assert start < stop, f"empty run [{start},{stop})"
            assert value != self.default, f"default-valued run at [{start},{stop})"
            if prev_stop is not None:
                assert start >= prev_stop, "overlapping runs"
                if start == prev_stop:
                    assert value != prev_value, "uncoalesced adjacent runs"
            prev_stop, prev_value = stop, value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(
            f"[{s},{e})={v!r}"
            for s, e, v in zip(self._starts, self._stops, self._values)
        )
        return f"IntervalMap(default={self.default!r}, {body})"

    def copy(self) -> "IntervalMap[V]":
        """A shallow copy (values are shared; runs are independent)."""
        clone: IntervalMap[V] = IntervalMap(self.default)
        clone._starts = list(self._starts)
        clone._stops = list(self._stops)
        clone._values = list(self._values)
        return clone
