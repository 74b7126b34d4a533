"""Span recorder that times a program from outside.

The benchmark may not edit the program under test, so per-layer numbers
come from wrappers this module installs on named callables (methods of
classes, functions of modules) and removes again.  Every wrapped call on
the benchmark's one loop thread is synchronous, so nesting is a stack:

* a **span** is ``(name, start, end, parent, tag)``; ``parent`` is the
  index of the enclosing span (-1 for a root) and ``tag`` an optional
  request identifier such as ``("P0", tick)``;
* a name's **self time** is the duration of its spans minus the part of
  that interval their child spans cover, so summing self time over all
  names counts every traced nanosecond exactly once.

Spans are kept in memory (five parallel arrays, ~28 bytes a span) and
written out as Chrome-trace JSON only on request.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Recorder", "Snapshot", "Totals"]

#: ``tag_of(args, result)`` -> request tag or None.
TagFn = Callable[[tuple, Any], Any]


class Totals:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "cpu_ns")

    def __init__(self, calls: int, total_ns: int, self_ns: int, cpu_ns: int) -> None:
        self.calls = calls
        self.total_ns = total_ns
        self.self_ns = self_ns
        #: Process CPU inside the spans; only for names wrapped with
        #: ``cpu=True`` (calls that block, where wall time is not CPU).
        self.cpu_ns = cpu_ns


class Recorder:
    """Installs span wrappers, records spans, restores the originals.

    Use as a context manager: leaving the block puts back every attribute
    exactly as it was found, so an untraced run in the same process
    executes the original code objects.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        #: Plain counters bumped by counting wrappers (e.g. generator yields).
        self.counts: Dict[str, int] = {}
        self.tags: List[Any] = []
        self._name_ids: Dict[str, int] = {}
        #: Per name id: [calls, total ns, self ns, cpu ns].
        self._totals: List[List[int]] = []
        # Closed spans in the order they *ended* (children before their
        # parent), with their nesting depth; parents are worked out from
        # the two when spans are read.
        self._span_name = array("H")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_depth = array("H")
        self._span_tag = array("l")
        #: Open spans: [name id, accumulated child ns, start ns].
        self._stack: List[List[int]] = []
        #: (owner, attribute, original attribute as found in owner.__dict__)
        self._installed: List[Tuple[Any, str, Any]] = []
        self.begin, self.end = self._recording_functions()

    # -- recording -------------------------------------------------------

    def _register(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._totals.append([0, 0, 0, 0])
        return name_id

    def _recording_functions(self) -> Tuple[Callable[[int], None], Callable[..., int]]:
        """``begin(name_id)`` and ``end(tag=None)``, the two calls every
        wrapper makes, as closures over locals: they run a hundred times
        per publication, and attribute lookups were half their cost."""
        clock, stack, totals, tags = self.clock, self._stack, self._totals, self.tags
        push, pop = stack.append, stack.pop
        add_name, add_start = self._span_name.append, self._span_start.append
        add_end, add_depth = self._span_end.append, self._span_depth.append
        add_tag = self._span_tag.append

        def begin(name_id: int) -> None:
            frame = [name_id, 0, 0]
            push(frame)
            # Read the clock last so the bookkeeping above is charged to
            # the parent, not to this span.
            frame[2] = clock()

        def end(tag: Any = None) -> int:
            """Close the innermost span; returns its duration in ns."""
            now = clock()
            name_id, child_ns, start = pop()
            duration = now - start
            add_name(name_id)
            add_start(start)
            add_end(now)
            add_depth(len(stack))
            if tag is None:
                add_tag(-1)
            else:
                add_tag(len(tags))
                tags.append(tag)
            row = totals[name_id]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_ns
            if stack:
                stack[-1][1] += duration
            return duration

        return begin, end

    @property
    def totals(self) -> Dict[str, Totals]:
        """Aggregates by span name."""
        return {name: Totals(*self._totals[i]) for i, name in enumerate(self.names)}

    def span(self, name: str, tag: Any = None) -> "_SpanContext":
        """Record a span around a ``with`` block (for harness code)."""
        return _SpanContext(self, self._register(name), tag)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        tag_of: Optional[TagFn] = None,
        cpu: bool = False,
        before: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a plain function or method) with a
        span-recording wrapper.  ``before`` runs ahead of the span with the
        call's positional arguments (used to pair queue stamps)."""
        original = self._original(owner, attribute)
        name_id = self._register(name)
        begin, end = self.begin, self.end
        row = self._totals[name_id]
        process_ns = time.process_time_ns

        if cpu:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                cpu_start = process_ns()
                begin(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    end()
                    row[3] += process_ns() - cpu_start

        elif tag_of is None and before is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                begin(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    end()

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if before is not None:
                    before(args)
                begin(name_id)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end(tag_of(args, result) if tag_of is not None else None)

        self._install(owner, attribute, wrapper, original)

    def wrap_generator(
        self, owner: Any, attribute: str, name: str, timed: bool = False
    ) -> None:
        """Wrap a generator function: counts its yields under
        ``name + '.yields'`` and its calls under ``name + '.calls'``
        without changing what it yields.  With ``timed`` each resume of
        the generator body is also recorded as a span."""
        original = self._original(owner, attribute)
        counts = self.counts
        yields_key, calls_key = name + ".yields", name + ".calls"
        counts.setdefault(yields_key, 0)
        counts.setdefault(calls_key, 0)

        if not timed:

            def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                yielded = 0
                try:
                    for item in original(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    counts[yields_key] += yielded
                    counts[calls_key] += 1

        else:
            name_id = self._register(name)
            begin, end = self.begin, self.end

            def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = original(*args, **kwargs)
                yielded = 0
                try:
                    while True:
                        begin(name_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            end()
                        yielded += 1
                        yield item
                finally:
                    inner.close()
                    counts[yields_key] += yielded
                    counts[calls_key] += 1

        self._install(owner, attribute, wrapper, original)

    def wrap_module_function(
        self, modules: Iterable[Any], attribute: str, name: str
    ) -> None:
        """Wrap a module-level function under every module that imported
        it by name (``from .wire import encode_batch_frame`` binds a
        second reference that patching the defining module would miss)."""
        for module in modules:
            if attribute in vars(module):
                self.wrap(module, attribute, name)

    def replace(
        self, owner: Any, attribute: str, make: Callable[[Any], Any]
    ) -> None:
        """Install ``make(original)`` in place of ``owner.attribute`` —
        for wrappers that are not plain spans (stamping a queue entry,
        wrapping a callback argument).  Restored like any other."""
        original = self._original(owner, attribute)
        self._install(owner, attribute, make(original), original)

    def timed_callback(self, name: str, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` wrapped so that each later call of it is a span."""
        name_id = self._register(name)
        begin, end = self.begin, self.end

        def run() -> Any:
            begin(name_id)
            try:
                return fn()
            finally:
                end()

        return run

    @staticmethod
    def _original(owner: Any, attribute: str) -> Any:
        original = getattr(owner, attribute)
        if getattr(original, "__benchmark_wrapper__", False):
            raise RuntimeError(f"{owner!r}.{attribute} is already wrapped")
        return original

    def _install(self, owner: Any, attribute: str, wrapper: Any, original: Any) -> None:
        wrapper.__benchmark_wrapper__ = True
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attribute)
        # Remember what the owner's own namespace held (a staticmethod
        # object, or nothing when the attribute is inherited) so restore
        # is exact.
        found = vars(owner).get(attribute, _ABSENT)
        if isinstance(found, staticmethod):
            wrapper = staticmethod(wrapper)
        self._installed.append((owner, attribute, found))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attribute, found = self._installed.pop()
            if found is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, found)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # -- results ---------------------------------------------------------

    def snapshot(self) -> "Snapshot":
        """Totals and counters as of now; subtract two to get a window."""
        return Snapshot(
            {name: tuple(self._totals[i]) for i, name in enumerate(self.names)},
            dict(self.counts),
            self.span_count,
        )

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def spans(self) -> List[Tuple[str, int, int, int, Any]]:
        """Closed spans as ``(name, start_ns, end_ns, parent_index, tag)``
        in the order they began; ``parent_index`` points into this list
        (-1 for a root)."""
        count = len(self._span_name)
        # Stored in end order with depths: a span's parent is the next
        # span stored after it that is one level shallower.
        parent_of = [-1] * count
        waiting: Dict[int, List[int]] = {}
        for i in range(count):
            depth = self._span_depth[i]
            for child in waiting.pop(depth + 1, ()):
                parent_of[child] = i
            waiting.setdefault(depth, []).append(i)
        order = sorted(range(count), key=lambda i: (self._span_start[i], self._span_depth[i]))
        position = {stored: began for began, stored in enumerate(order)}
        return [
            (
                self.names[self._span_name[i]],
                self._span_start[i],
                self._span_end[i],
                position.get(parent_of[i], -1),
                self.tags[self._span_tag[i]] if self._span_tag[i] >= 0 else None,
            )
            for i in order
        ]

    def write_chrome_trace(self, path: str) -> None:
        """Complete ('X') events, microsecond timestamps; nesting on the
        single thread is implied by containment."""
        spans = self.spans()
        origin = spans[0][1] if spans else 0
        events = []
        for name, start, end, parent, tag in spans:
            event = {
                "name": name,
                "cat": name.split(":", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
            }
            args: Dict[str, Any] = {"parent": parent}
            if tag is not None:
                args["tag"] = list(tag) if isinstance(tag, tuple) else tag
            event["args"] = args
            events.append(event)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


class Snapshot:
    """Recorder totals at one instant.  ``later - earlier`` is the work
    recorded in between; the accessors sum over every span name that
    starts with ``prefix`` (names are ``layer:callable``)."""

    __slots__ = ("totals", "counts", "spans")

    def __init__(
        self,
        totals: Dict[str, Tuple[int, int, int, int]],
        counts: Dict[str, int],
        spans: int,
    ) -> None:
        self.totals = totals
        self.counts = counts
        self.spans = spans

    def __sub__(self, earlier: "Snapshot") -> "Snapshot":
        zero = (0, 0, 0, 0)
        return Snapshot(
            {
                name: tuple(
                    a - b for a, b in zip(now, earlier.totals.get(name, zero))
                )
                for name, now in self.totals.items()
            },
            {
                key: value - earlier.counts.get(key, 0)
                for key, value in self.counts.items()
            },
            self.spans - earlier.spans,
        )

    def _sum(self, prefix: str, column: int) -> int:
        return sum(
            row[column] for name, row in self.totals.items() if name.startswith(prefix)
        )

    def calls(self, prefix: str = "") -> int:
        return self._sum(prefix, 0)

    def total_us(self, prefix: str = "") -> float:
        return self._sum(prefix, 1) / 1000.0

    def self_us(self, prefix: str = "") -> float:
        return self._sum(prefix, 2) / 1000.0

    def blocked_us(self) -> float:
        """Wall time that CPU-tracked spans spent not on the CPU (fsync)."""
        return sum(
            max(0, total - cpu)
            for __, total, ___, cpu in self.totals.values()
            if cpu
        ) / 1000.0

    def cpu_us(self, prefix: str) -> float:
        return self._sum(prefix, 3) / 1000.0

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


class _SpanContext:
    __slots__ = ("recorder", "name_id", "tag")

    def __init__(self, recorder: Recorder, name_id: int, tag: Any) -> None:
        self.recorder = recorder
        self.name_id = name_id
        self.tag = tag

    def __enter__(self) -> None:
        self.recorder.begin(self.name_id)

    def __exit__(self, *exc: Any) -> None:
        self.recorder.end(self.tag)


_ABSENT = object()
