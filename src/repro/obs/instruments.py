"""Low-overhead instruments: counters, gauges, fixed-bucket histograms.

The observability layer's contract with the hot paths (broker engine,
pubend, subend, simulated links) is strict:

* an instrument is resolved **once** at construction time — a hot-path
  event is a single bound-method call on an already-resolved child, never
  a registry lookup;
* histograms use **fixed bucket boundaries** and store only per-bucket
  counts plus a running sum — never per-sample storage — so memory is
  O(buckets) no matter how long the system runs;
* code instrumented against :data:`NULL_INSTRUMENTS` pays only a no-op
  method call when observability is not wired up, so unit tests and
  microbenchmarks of the protocol core see no measurable overhead.

Instruments are identified by ``(name, labels)``.  Asking a registry for
the same identity twice returns the same child, which is what lets a
restarted broker engine keep counting into the counters of its previous
incarnation (soft state dies; measurements survive).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instruments",
    "NullInstruments",
    "NULL_INSTRUMENTS",
    "DEFAULT_BUCKETS",
    "TICK_RANGE_BUCKETS",
]

#: Seconds-scale boundaries (latency, CPU time).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Tick-count boundaries (nack ranges; 1 tick = 1 ms).
TICK_RANGE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

LabelItems = Tuple[Tuple[str, str], ...]


class _Instrument:
    """Common identity of one registered child."""

    kind = "untyped"

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels


class Counter(_Instrument):
    """A monotonically increasing count of events."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems = ()):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError("counters only go up")
        self.value += by


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, horizon, prefix)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems = ()):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, by: float = 1.0) -> None:
        self.value += by

    def dec(self, by: float = 1.0) -> None:
        self.value -= by


class Histogram(_Instrument):
    """Fixed-boundary cumulative-bucket histogram (Prometheus semantics).

    ``counts[i]`` is the number of observations ``<= boundaries[i]``
    exclusive of earlier buckets; the implicit ``+Inf`` bucket is
    ``count``.  No sample is ever stored.
    """

    kind = "histogram"

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        boundaries: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in boundaries)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.boundaries = bounds
        self.counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        if index < len(self.counts):
            self.counts[index] += 1
        self.sum += value
        self.count += 1

    def bucket_pairs(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.boundaries, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class _NullCounter:
    """Shared do-nothing counter for un-observed code paths."""

    __slots__ = ()

    def inc(self, by: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, by: float = 1.0) -> None:
        pass

    def dec(self, by: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class _Family:
    """All children of one metric name (shared help/kind/label schema)."""

    __slots__ = ("name", "kind", "help", "label_names", "children")

    def __init__(self, name: str, kind: str, help_text: str, label_names: Tuple[str, ...]):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.children: Dict[LabelItems, Any] = {}


class Instruments:
    """The registry of all live instruments of one system.

    ``counter``/``gauge``/``histogram`` are get-or-create on
    ``(name, labels)``: instrumented components resolve their children at
    construction time and a re-constructed component (e.g. a restarted
    broker engine) picks up exactly where the previous incarnation left
    off.  A name registered twice with a different kind or label schema
    is a programming error and raises immediately.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- registration --------------------------------------------------

    def _family(
        self, name: str, kind: str, help_text: str, label_names: Tuple[str, ...]
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, label_names)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        if family.label_names != label_names:
            raise ValueError(
                f"metric {name!r} label schema {family.label_names} != {label_names}"
            )
        if help_text and not family.help:
            family.help = help_text
        return family

    @staticmethod
    def _label_items(labels: Dict[str, Any]) -> LabelItems:
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        items = self._label_items(labels)
        family = self._family(name, "counter", help, tuple(k for k, __ in items))
        child = family.children.get(items)
        if child is None:
            child = Counter(name, items)
            family.children[items] = child
        return child

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        items = self._label_items(labels)
        family = self._family(name, "gauge", help, tuple(k for k, __ in items))
        child = family.children.get(items)
        if child is None:
            child = Gauge(name, items)
            family.children[items] = child
        return child

    def histogram(
        self,
        name: str,
        help: str = "",
        boundaries: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        items = self._label_items(labels)
        family = self._family(name, "histogram", help, tuple(k for k, __ in items))
        child = family.children.get(items)
        if child is None:
            child = Histogram(name, items, boundaries=boundaries)
            family.children[items] = child
        elif child.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(f"histogram {name!r} boundaries differ across sites")
        return child

    # -- collection ----------------------------------------------------

    def families(self) -> Iterator[Tuple[str, str, str, List[Any]]]:
        """``(name, kind, help, children)`` sorted by name; children
        sorted by label values — the stable order exporters rely on."""
        for name in sorted(self._families):
            family = self._families[name]
            children = [family.children[key] for key in sorted(family.children)]
            yield name, family.kind, family.help, children

    def names(self) -> List[str]:
        return sorted(self._families)

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """Look up an existing child without creating it."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(self._label_items(labels))

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family over all children (histograms:
        total observation count)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        if family.kind == "histogram":
            return float(sum(c.count for c in family.children.values()))
        return float(sum(c.value for c in family.children.values()))

    def __len__(self) -> int:
        return sum(len(f.children) for f in self._families.values())


class NullInstruments:
    """A registry stand-in whose instruments all do nothing.

    Components take ``instruments=NULL_INSTRUMENTS`` by default, so
    protocol classes used standalone (unit tests, microbenchmarks) pay a
    no-op method call per event and allocate nothing.
    """

    def counter(self, name: str, help: str = "", **labels: Any) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels: Any) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        help: str = "",
        boundaries: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def names(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0


NULL_INSTRUMENTS = NullInstruments()
