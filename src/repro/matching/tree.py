"""The Gryphon matching tree (Aguilera, Strom, Sturman, Astley, Chandra —
"Matching events in a content-based subscription system", PODC 1999).

This is the matching algorithm the paper's reference [2] contributes and
that Gryphon's brokers used: subscriptions are conjunctions of
attribute tests arranged in a *parallel search tree*.  Each tree level
tests one attribute; a node has one child edge per constant the
subscriptions compare against, plus a ``*`` ("don't care") edge for
subscriptions that do not constrain the attribute.  Matching an event
walks every root-to-leaf path consistent with the event — following, at
each level, the edge labelled with the event's value (if present) *and*
the ``*`` edge — and collects the subscriptions at the reached leaves.
The walk's cost depends on the tree shape, not directly on the number of
subscriptions, which is what lets a broker serve tens of thousands of
subscribers (paper section 4.1).

Scope: equality tests are placed on tree edges (the PODC algorithm's
core); other elementary tests of a conjunction (ranges, ``!=``,
``exists``) become a residual predicate evaluated at the leaf; predicates
that are not flat conjunctions fall back to direct evaluation, so
correctness never depends on tree coverage.  Differential-tested against
:class:`~repro.matching.engine.BruteForceMatcher`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from .ast import Comparison, Predicate, TrueP, conjoin
from .engine import Matcher, _eq_key, _flatten_conjunction

__all__ = ["MatchingTree"]


class _Node:
    """One tree node: tests ``attribute``; edges per constant + don't-care."""

    __slots__ = ("attribute", "edges", "star", "results", "parent", "label")

    def __init__(
        self,
        parent: Optional["_Node"] = None,
        label: Optional[Tuple[str, Any]] = None,
    ):
        #: The attribute this node tests (None for pure leaf nodes).
        self.attribute: Optional[str] = None
        #: The node above and the edge constant leading here (``None``
        #: for its ``*`` edge) — what :meth:`MatchingTree.remove` prunes by.
        self.parent = parent
        self.label = label
        #: constant -> child node.
        self.edges: Dict[Tuple[str, Any], "_Node"] = {}
        #: don't-care child (subscriptions not constraining the attribute).
        self.star: Optional["_Node"] = None
        #: (sub_id, residual) pairs terminating at this node.
        self.results: List[Tuple[str, Optional[Predicate]]] = []


class MatchingTree(Matcher):
    """Parallel search tree over equality tests, PODC '99 style."""

    def __init__(self) -> None:
        self._root = _Node()
        #: Global test order: attributes in first-seen order.  (The PODC
        #: paper pre-computes a schema order; first-seen keeps the tree
        #: deterministic without requiring one.)
        self._order: List[str] = []
        self._order_index: Dict[str, int] = {}
        self._fallback: Dict[str, Predicate] = {}
        self._subs: Dict[str, Predicate] = {}
        #: sub_id -> leaf node holding it (for removal).
        self._leaf_of: Dict[str, _Node] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, sub_id: str, predicate: Predicate) -> None:
        if sub_id in self._subs:
            self.remove(sub_id)
        self._subs[sub_id] = predicate
        terms = _flatten_conjunction(predicate)
        if terms is None:
            self._fallback[sub_id] = predicate
            return
        equalities: Dict[str, Any] = {}
        residual_terms: List[Predicate] = []
        for term in terms:
            if (
                isinstance(term, Comparison)
                and term.op == "="
                and term.attr not in equalities
            ):
                equalities[term.attr] = term.value
            else:
                residual_terms.append(term)
        for attr in equalities:
            if attr not in self._order_index:
                self._order_index[attr] = len(self._order)
                self._order.append(attr)
        residual = conjoin(*residual_terms) if residual_terms else None
        if isinstance(residual, TrueP):
            residual = None
        leaf = self._insert(equalities)
        leaf.results.append((sub_id, residual))
        self._leaf_of[sub_id] = leaf

    def _insert(self, equalities: Dict[str, Any]) -> _Node:
        """Walk/extend the tree along the subscription's tests.

        Levels follow the global attribute order; a subscription without
        a test at some level takes the ``*`` edge.  The walk only extends
        through levels up to the subscription's deepest tested attribute —
        deeper attributes introduced later never invalidate existing
        leaves because matching treats "no more levels" as all-``*``.
        """
        node = self._root
        deepest = max(
            (self._order_index[a] for a in equalities), default=-1
        )
        for depth in range(deepest + 1):
            attribute = self._order[depth]
            if node.attribute is None:
                node.attribute = attribute
            # Every path to a node has the same length, and the global
            # order only appends, so a node's attribute is always the
            # order entry for its depth.
            assert node.attribute == attribute, "matching-tree level skew"
            if attribute in equalities:
                key = _eq_key(equalities[attribute])
                child = node.edges.get(key)
                if child is None:
                    child = _Node(node, key)
                    node.edges[key] = child
                node = child
            else:
                if node.star is None:
                    node.star = _Node(node)
                node = node.star
        return node

    def remove(self, sub_id: str) -> None:
        self._subs.pop(sub_id, None)
        self._fallback.pop(sub_id, None)
        node = self._leaf_of.pop(sub_id, None)
        if node is None:
            return
        node.results = [(s, r) for (s, r) in node.results if s != sub_id]
        # Prune the chain this subscription alone kept alive, so the tree
        # is sized by the live set, not by history.  (``_order`` never
        # shrinks, so a surviving node's attribute still fits its depth.)
        while node.parent is not None and not (
            node.results or node.edges or node.star
        ):
            parent = node.parent
            if node.label is None:
                parent.star = None
            else:
                del parent.edges[node.label]
            node = parent

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def match(self, event: Mapping[str, Any]) -> Set[str]:
        matched: Set[str] = set()
        stack: List[_Node] = [self._root]
        while stack:
            node = stack.pop()
            for sub_id, residual in node.results:
                if residual is None or residual.evaluate(event):
                    matched.add(sub_id)
            if node.attribute is None:
                continue
            value = event.get(node.attribute)
            if value is not None:
                child = node.edges.get(_eq_key(value))
                if child is not None:
                    stack.append(child)
            if node.star is not None:
                stack.append(node.star)
        for sub_id, predicate in self._fallback.items():
            if predicate.evaluate(event):
                matched.add(sub_id)
        return matched

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def depth(self) -> int:
        """Number of attribute levels currently in the tree."""
        return len(self._order)

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.edges.values())
            if node.star is not None:
                stack.append(node.star)
        return count


