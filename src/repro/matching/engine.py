"""Matching engines: which subscriptions match an event?

Brokers must match each published event against very large subscription
sets (the paper's SHB serves up to 16000 subscribers).  Two engines are
provided:

* :class:`BruteForceMatcher` — evaluates every predicate; the obviously
  correct baseline.
* :class:`IndexedMatcher` — a counting matcher in the spirit of the
  Gryphon matching work (Aguilera et al., PODC '99): conjunctions of
  attribute comparisons are decomposed into elementary tests indexed per
  attribute (hash index for equality, sorted threshold lists for ordering
  tests); an event touches only the indexes of attributes it carries, and
  a subscription matches when *all* of its tests are satisfied (counting).
  Predicates that are not flat conjunctions fall back to direct
  evaluation.

Both engines implement the same interface and are differential-tested
against each other.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .ast import And, Comparison, Exists, Predicate, TrueP

__all__ = ["Matcher", "BruteForceMatcher", "IndexedMatcher"]


class Matcher:
    """Interface: a mutable set of named subscriptions, matched in bulk."""

    def add(self, sub_id: str, predicate: Predicate) -> None:
        raise NotImplementedError

    def remove(self, sub_id: str) -> None:
        raise NotImplementedError

    def match(self, event: Mapping[str, Any]) -> Set[str]:
        """IDs of all subscriptions whose predicate the event satisfies."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class BruteForceMatcher(Matcher):
    """Evaluate every predicate against every event."""

    def __init__(self) -> None:
        self._subs: Dict[str, Predicate] = {}

    def add(self, sub_id: str, predicate: Predicate) -> None:
        self._subs[sub_id] = predicate

    def remove(self, sub_id: str) -> None:
        self._subs.pop(sub_id, None)

    def match(self, event: Mapping[str, Any]) -> Set[str]:
        return {
            sub_id
            for sub_id, predicate in self._subs.items()
            if predicate.evaluate(event)
        }

    def __len__(self) -> int:
        return len(self._subs)


def _flatten_conjunction(predicate: Predicate) -> Optional[List[Predicate]]:
    """The elementary terms of a flat conjunction, or ``None`` when the
    predicate has any other shape (Or / Not / nesting)."""
    if isinstance(predicate, (Comparison, Exists)):
        return [predicate]
    if isinstance(predicate, TrueP):
        return []
    if isinstance(predicate, And):
        terms: List[Predicate] = []
        for term in predicate.terms:
            if isinstance(term, (Comparison, Exists)):
                terms.append(term)
            else:
                return None
        return terms
    return None


def _type_tag(value: Any) -> Optional[int]:
    """Orderable-type tag: 0 for numbers, 1 for strings, None otherwise.

    Booleans are deliberately unorderable (``flag > false`` falls back to
    direct evaluation)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return 0
    if isinstance(value, str):
        return 1
    return None


class _AttrIndex:
    """Per-attribute index of elementary tests.

    Equality tests live in a hash index keyed by constant; ordering tests
    (<, <=, >, >=) in threshold lists sorted by ``(type_tag, threshold)``
    so that, given an event value, all satisfied tests are found with one
    bisection plus a scan of the satisfied region; ``!=`` and ``exists``
    tests are scanned directly (nearly every value satisfies them, so an
    index would not prune anything).
    """

    __slots__ = ("eq", "lt", "gt", "ne", "exists")

    def __init__(self) -> None:
        #: constant -> test ids (equality)
        self.eq: Dict[Any, List[int]] = defaultdict(list)
        #: sorted (tag, threshold, strict, test_id); satisfied when
        #: value < threshold (strict) or value <= threshold.
        self.lt: List[Tuple[int, Any, bool, int]] = []
        #: sorted likewise; satisfied when value > / >= threshold.
        self.gt: List[Tuple[int, Any, bool, int]] = []
        #: (constant, test_id) pairs for !=
        self.ne: List[Tuple[Any, int]] = []
        #: test ids for `exists attr`
        self.exists: List[int] = []

    def satisfied(self, value: Any) -> Iterator[int]:
        bucket = self.eq.get(_eq_key(value))
        if bucket is not None:
            yield from bucket
        yield from self.exists
        for other, test_id in self.ne:
            if _same_family(value, other) and value != other:
                yield test_id
        tag = _type_tag(value)
        if tag is None:
            return
        if self.lt:
            # Candidates: thresholds of the same family at or above value.
            idx = bisect_left(self.lt, (tag, value, False, -1))
            for entry_tag, threshold, strict, test_id in self.lt[idx:]:
                if entry_tag != tag:
                    break
                if value < threshold or (not strict and value == threshold):
                    yield test_id
        if self.gt:
            # Candidates: thresholds of the same family at or below value.
            idx = bisect_right(self.gt, (tag, value, True, 2**62))
            start = bisect_left(self.gt, (tag,))
            for entry_tag, threshold, strict, test_id in self.gt[start:idx]:
                if value > threshold or (not strict and value == threshold):
                    yield test_id


def _eq_key(value: Any) -> Tuple[str, Any]:
    """Equality-index key with type fidelity (True must not match 1)."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", value)
    return ("s", value)


def _same_family(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return isinstance(a, str) and isinstance(b, str)


class IndexedMatcher(Matcher):
    """Counting matcher over per-attribute test indexes.

    Subscription shapes handled by the index: flat conjunctions of
    :class:`Comparison` / :class:`Exists` terms (including single terms
    and ``true``).  Anything else — Or, Not, nesting, or ordering tests
    on booleans — is kept in a fallback list and evaluated directly, so
    correctness never depends on index coverage.
    """

    def __init__(self) -> None:
        self._indexes: Dict[str, _AttrIndex] = {}
        #: test_id -> owning subscription (None = removed, skipped lazily)
        self._test_owner: List[Optional[str]] = []
        #: sub_id -> number of tests that must all be satisfied
        self._required: Dict[str, int] = {}
        self._match_all: Set[str] = set()
        self._fallback: Dict[str, Predicate] = {}
        self._subs: Dict[str, Predicate] = {}
        self._sub_tests: Dict[str, List[int]] = {}

    def add(self, sub_id: str, predicate: Predicate) -> None:
        if sub_id in self._subs:
            self.remove(sub_id)
        self._subs[sub_id] = predicate
        terms = _flatten_conjunction(predicate)
        if terms is None or any(not self._indexable(t) for t in terms):
            self._fallback[sub_id] = predicate
            return
        if not terms:
            self._match_all.add(sub_id)
            return
        test_ids: List[int] = []
        for term in terms:
            test_id = len(self._test_owner)
            self._test_owner.append(sub_id)
            test_ids.append(test_id)
            self._insert_test(term, test_id)
        self._required[sub_id] = len(test_ids)
        self._sub_tests[sub_id] = test_ids

    @staticmethod
    def _indexable(term: Predicate) -> bool:
        if isinstance(term, Exists):
            return True
        if isinstance(term, Comparison):
            if term.op in ("=", "!="):
                return True
            return _type_tag(term.value) is not None
        return False

    def _insert_test(self, term: Predicate, test_id: int) -> None:
        if isinstance(term, Exists):
            self._indexes.setdefault(term.attr, _AttrIndex()).exists.append(test_id)
            return
        assert isinstance(term, Comparison)
        index = self._indexes.setdefault(term.attr, _AttrIndex())
        if term.op == "=":
            index.eq[_eq_key(term.value)].append(test_id)
        elif term.op == "!=":
            index.ne.append((term.value, test_id))
        elif term.op in ("<", "<="):
            tag = _type_tag(term.value)
            insort(index.lt, (tag, term.value, term.op == "<", test_id))
        else:  # > or >=
            tag = _type_tag(term.value)
            insort(index.gt, (tag, term.value, term.op == ">", test_id))

    def remove(self, sub_id: str) -> None:
        self._subs.pop(sub_id, None)
        self._fallback.pop(sub_id, None)
        self._match_all.discard(sub_id)
        self._required.pop(sub_id, None)
        for test_id in self._sub_tests.pop(sub_id, ()):
            # Lazy removal: orphan the test; stale index entries are
            # skipped at match time because their owner is None.
            self._test_owner[test_id] = None

    def match(self, event: Mapping[str, Any]) -> Set[str]:
        counts: Dict[str, int] = defaultdict(int)
        for attr, value in event.items():
            index = self._indexes.get(attr)
            if index is None:
                continue
            for test_id in index.satisfied(value):
                owner = self._test_owner[test_id]
                if owner is not None:
                    counts[owner] += 1
        matched = {
            sub_id
            for sub_id, count in counts.items()
            if count == self._required.get(sub_id, -1)
        }
        matched |= self._match_all
        for sub_id, predicate in self._fallback.items():
            if predicate.evaluate(event):
                matched.add(sub_id)
        return matched

    def __len__(self) -> int:
        return len(self._subs)
