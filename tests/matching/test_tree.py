"""Tests for the PODC '99 parallel matching tree, including differential
testing against the brute-force matcher."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.engine import BruteForceMatcher
from repro.matching.events import Event
from repro.matching.parser import parse
from repro.matching.tree import MatchingTree


def both(subs):
    brute, tree = BruteForceMatcher(), MatchingTree()
    for sub_id, predicate in subs.items():
        brute.add(sub_id, predicate)
        tree.add(sub_id, predicate)
    return brute, tree


class TestBasics:
    def test_single_equality(self):
        __, tree = both({"s": parse("topic = 'sports'")})
        assert tree.match(Event({"topic": "sports"})) == {"s"}
        assert tree.match(Event({"topic": "news"})) == set()
        assert tree.match(Event({})) == set()

    def test_conjunction_of_equalities(self):
        __, tree = both({"s": parse("a = 1 and b = 2")})
        assert tree.match(Event({"a": 1, "b": 2})) == {"s"}
        assert tree.match(Event({"a": 1, "b": 3})) == set()
        assert tree.match(Event({"a": 1})) == set()

    def test_dont_care_edges(self):
        """A subscription not testing an attribute matches any value."""
        __, tree = both(
            {
                "ab": parse("a = 1 and b = 2"),
                "a_only": parse("a = 1"),
                "b_only": parse("b = 2"),
                "all": parse("true"),
            }
        )
        assert tree.match(Event({"a": 1, "b": 2})) == {"ab", "a_only", "b_only", "all"}
        assert tree.match(Event({"a": 1, "b": 9})) == {"a_only", "all"}
        assert tree.match(Event({"b": 2})) == {"b_only", "all"}
        assert tree.match(Event({"c": 7})) == {"all"}

    def test_residual_range_terms(self):
        __, tree = both({"s": parse("sym = 'IBM' and price > 100")})
        assert tree.match(Event({"sym": "IBM", "price": 101})) == {"s"}
        assert tree.match(Event({"sym": "IBM", "price": 99})) == set()

    def test_fallback_for_disjunction(self):
        __, tree = both({"s": parse("a = 1 or b = 2")})
        assert tree.match(Event({"b": 2})) == {"s"}

    def test_duplicate_attribute_equalities(self):
        """a = 1 and a = 2 can never match (second test is residual)."""
        __, tree = both({"s": parse("a = 1 and a = 2")})
        assert tree.match(Event({"a": 1})) == set()
        assert tree.match(Event({"a": 2})) == set()

    def test_bool_vs_int_edges(self):
        __, tree = both({"b": parse("f = true"), "n": parse("f = 1")})
        assert tree.match(Event({"f": True})) == {"b"}
        assert tree.match(Event({"f": 1})) == {"n"}

    def test_shared_prefix_structure(self):
        tree = MatchingTree()
        for i in range(50):
            tree.add(f"s{i}", parse(f"topic = 'sports' and team = {i}"))
        # one root level (topic) + one team level: 50 leaves but only a
        # few dozen internal nodes, not 50 independent chains.
        assert tree.depth() == 2
        assert tree.node_count() <= 2 + 1 + 50 + 2


class TestMutation:
    def test_remove(self):
        __, tree = both({"a": parse("x = 1"), "b": parse("x = 1")})
        tree.remove("a")
        assert tree.match(Event({"x": 1})) == {"b"}
        assert len(tree) == 1

    def test_re_add_replaces(self):
        tree = MatchingTree()
        tree.add("s", parse("x = 1"))
        tree.add("s", parse("x = 2"))
        assert tree.match(Event({"x": 1})) == set()
        assert tree.match(Event({"x": 2})) == {"s"}

    def test_attribute_introduced_later(self):
        """Subscriptions added before an attribute existed keep matching."""
        tree = MatchingTree()
        tree.add("old", parse("a = 1"))
        tree.add("new", parse("a = 1 and b = 2 and c = 3"))
        assert tree.match(Event({"a": 1})) == {"old"}
        assert tree.match(Event({"a": 1, "b": 2, "c": 3})) == {"old", "new"}

    def test_remove_prunes_the_chain_it_emptied(self):
        """The tree is sized by the live set, not by history: churn over
        high-cardinality constants leaves no dead nodes behind."""
        tree = MatchingTree()
        tree.add("live", parse("symbol = 'A'"))
        before = tree.node_count()
        for i in range(5000):
            tree.add("churn", parse(f"user = {i} and symbol = 'A'"))
            tree.remove("churn")
        assert tree.node_count() == before == 2
        assert tree.match(Event({"symbol": "A", "user": 7})) == {"live"}

    def test_remove_keeps_shared_and_star_chains(self):
        tree = MatchingTree()
        tree.add("ab", parse("a = 1 and b = 2"))
        tree.add("b_only", parse("b = 2"))  # root -*-> node -[b=2]-> leaf
        tree.add("ab2", parse("a = 1 and b = 3"))
        tree.remove("ab")
        assert tree.match(Event({"a": 1, "b": 3})) == {"ab2"}
        assert tree.match(Event({"a": 1, "b": 2})) == {"b_only"}
        tree.remove("b_only")
        tree.remove("ab2")
        assert tree.node_count() == 1
        assert tree.match(Event({"a": 1, "b": 2})) == set()


# --- differential -------------------------------------------------------------

from repro.matching.ast import And, Comparison, Exists, Not, Or, TrueP

attr_names = st.sampled_from(["a", "b", "c", "d"])
scalar = st.one_of(
    st.integers(-3, 3), st.sampled_from(["x", "y"]), st.booleans()
)
comparison = st.builds(
    Comparison,
    attr=attr_names,
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=scalar,
)
leaf = st.one_of(comparison, st.builds(Exists, attr=attr_names), st.just(TrueP()))
compound = st.one_of(
    leaf,
    st.builds(lambda a, b: And((a, b)), leaf, leaf),
    st.builds(lambda a, b: And((a, b)), leaf, st.builds(lambda x, y: And((x, y)), leaf, leaf)),
    st.builds(lambda a, b: Or((a, b)), leaf, leaf),
    st.builds(Not, leaf),
)
events = st.dictionaries(attr_names, scalar, max_size=4).map(Event)


class TestDifferential:
    @given(st.lists(compound, max_size=15), st.lists(events, max_size=8))
    @settings(max_examples=250, deadline=None)
    def test_tree_equals_brute_force(self, predicates, evts):
        subs = {f"s{i}": p for i, p in enumerate(predicates)}
        brute, tree = both(subs)
        for event in evts:
            assert tree.match(event) == brute.match(event)

    @given(
        st.lists(compound, min_size=4, max_size=12),
        st.lists(st.tuples(st.integers(0, 11), st.none() | compound), max_size=12),
        st.lists(events, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_tree_after_removals(self, predicates, steps, evts):
        """Each step removes ``s<i>`` (``None``) or adds / re-adds it with
        a new predicate; after every step the tree has exactly the nodes a
        tree built from the survivors alone would have."""
        subs = {f"s{i}": p for i, p in enumerate(predicates)}
        brute, tree = both(subs)
        for index, predicate in steps:
            sub_id = f"s{index}"
            if predicate is None:
                subs.pop(sub_id, None)
                brute.remove(sub_id)
                tree.remove(sub_id)
            else:
                subs[sub_id] = predicate
                brute.add(sub_id, predicate)
                tree.add(sub_id, predicate)
            assert len(tree) == len(subs)
            assert tree.node_count() == rebuilt(tree, subs).node_count()
            for event in evts:
                assert tree.match(event) == brute.match(event)


def rebuilt(tree, subs):
    """A fresh tree of ``subs`` alone, testing attributes in ``tree``'s
    order (the first-seen order never shrinks, and it fixes the shape)."""
    fresh = MatchingTree()
    fresh._order = list(tree._order)
    fresh._order_index = dict(tree._order_index)
    for sub_id, predicate in subs.items():
        fresh.add(sub_id, predicate)
    return fresh
