"""Unit and differential tests for the matching engines.

The IndexedMatcher must agree with BruteForceMatcher on every input —
verified exhaustively on hand-picked corner cases and via hypothesis over
generated subscription sets and events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.ast import And, Comparison, Exists, Not, Or, TrueP
from repro.matching.engine import BruteForceMatcher, IndexedMatcher
from repro.matching.events import Event
from repro.matching.parser import parse


def both_matchers(subs):
    brute, indexed = BruteForceMatcher(), IndexedMatcher()
    for sub_id, predicate in subs.items():
        brute.add(sub_id, predicate)
        indexed.add(sub_id, predicate)
    return brute, indexed


class TestBasicMatching:
    def test_equality_index(self):
        brute, indexed = both_matchers(
            {f"s{i}": parse(f"group = {i}") for i in range(100)}
        )
        event = Event({"group": 42})
        assert indexed.match(event) == brute.match(event) == {"s42"}

    def test_range_index(self):
        brute, indexed = both_matchers(
            {
                "low": parse("p < 10"),
                "mid": parse("p >= 10 and p <= 20"),
                "high": parse("p > 20"),
                "edge": parse("p >= 20"),
            }
        )
        for p in (5, 10, 15, 20, 21):
            event = Event({"p": p})
            assert indexed.match(event) == brute.match(event)

    def test_conjunction_requires_all_terms(self):
        __, indexed = both_matchers({"s": parse("Loc = 'NY' and p > 3")})
        assert indexed.match(Event({"Loc": "NY", "p": 4})) == {"s"}
        assert indexed.match(Event({"Loc": "NY", "p": 2})) == set()
        assert indexed.match(Event({"Loc": "NY"})) == set()

    def test_match_all_subscription(self):
        __, indexed = both_matchers({"all": TrueP()})
        assert indexed.match(Event({"x": 1})) == {"all"}
        assert indexed.match(Event({})) == {"all"}

    def test_fallback_for_or(self):
        brute, indexed = both_matchers({"s": parse("a = 1 or b = 2")})
        for attrs in ({"a": 1}, {"b": 2}, {"a": 2, "b": 3}):
            event = Event(attrs)
            assert indexed.match(event) == brute.match(event)

    def test_fallback_for_not(self):
        brute, indexed = both_matchers({"s": parse("not a = 1")})
        for attrs in ({"a": 1}, {"a": 2}, {}):
            event = Event(attrs)
            assert indexed.match(event) == brute.match(event)

    def test_exists(self):
        __, indexed = both_matchers({"s": parse("exists vol")})
        assert indexed.match(Event({"vol": 0})) == {"s"}
        assert indexed.match(Event({"p": 1})) == set()

    def test_ne_index(self):
        __, indexed = both_matchers({"s": parse("a != 5")})
        assert indexed.match(Event({"a": 4})) == {"s"}
        assert indexed.match(Event({"a": 5})) == set()
        assert indexed.match(Event({})) == set()  # missing attr never matches

    def test_bool_equality_has_type_fidelity(self):
        __, indexed = both_matchers({"s": parse("flag = true")})
        assert indexed.match(Event({"flag": True})) == {"s"}
        assert indexed.match(Event({"flag": 1})) == set()

    def test_string_range(self):
        brute, indexed = both_matchers({"s": parse("name >= 'm'")})
        for name in ("alpha", "m", "zebra"):
            event = Event({"name": name})
            assert indexed.match(event) == brute.match(event)

    def test_mixed_type_attribute_values(self):
        brute, indexed = both_matchers({"s": parse("v > 5")})
        assert indexed.match(Event({"v": "zzz"})) == brute.match(Event({"v": "zzz"})) == set()


class TestMutation:
    def test_remove_subscription(self):
        __, indexed = both_matchers({"a": parse("x = 1"), "b": parse("x = 1")})
        indexed.remove("a")
        assert indexed.match(Event({"x": 1})) == {"b"}
        assert len(indexed) == 1

    def test_re_add_replaces(self):
        indexed = IndexedMatcher()
        indexed.add("s", parse("x = 1"))
        indexed.add("s", parse("x = 2"))
        assert indexed.match(Event({"x": 1})) == set()
        assert indexed.match(Event({"x": 2})) == {"s"}

    def test_remove_fallback_subscription(self):
        indexed = IndexedMatcher()
        indexed.add("s", parse("a = 1 or b = 2"))
        indexed.remove("s")
        assert indexed.match(Event({"a": 1})) == set()

    def test_remove_unknown_is_noop(self):
        indexed = IndexedMatcher()
        indexed.remove("ghost")
        assert len(indexed) == 0


# --- hypothesis differential test --------------------------------------------

attr_names = st.sampled_from(["a", "b", "c", "d"])
scalar = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["x", "y", "z"]),
    st.booleans(),
    st.floats(-5, 5, allow_nan=False),
)
comparison = st.builds(
    Comparison,
    attr=attr_names,
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=scalar,
)
leaf = st.one_of(comparison, st.builds(Exists, attr=attr_names), st.just(TrueP()))


def predicates(depth=2):
    if depth == 0:
        return leaf
    sub = predicates(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(Not, sub),
    )


events = st.dictionaries(attr_names, scalar, max_size=4).map(Event)


class TestDifferential:
    @given(st.lists(predicates(), min_size=0, max_size=12), st.lists(events, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_indexed_equals_brute_force(self, preds, evts):
        subs = {f"s{i}": p for i, p in enumerate(preds)}
        brute, indexed = both_matchers(subs)
        for event in evts:
            assert indexed.match(event) == brute.match(event)


class TestMatchCache:
    """``IndexedMatcher`` has no match cache; the class and test names
    say "cache" only so these two test ids stay stable."""

    def test_signature_distinguishes_true_from_one(self):
        # Event({"flag": True}) and Event({"flag": 1}) must never be
        # confused: the eq index keys by value family.
        indexed = IndexedMatcher()
        indexed.add("s", parse("flag = true"))
        assert indexed.match(Event({"flag": True})) == {"s"}
        assert indexed.match(Event({"flag": 1})) == set()
        assert indexed.match(Event({"flag": True})) == {"s"}

    @given(
        st.lists(predicates(), min_size=1, max_size=8),
        st.lists(events, min_size=1, max_size=10),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_cached_matcher_equals_brute_force_under_churn(
        self, preds, evts, data
    ):
        # Interleave match calls with add/remove churn; the indexed matcher
        # must track the brute-force reference at every step.
        brute, indexed = BruteForceMatcher(), IndexedMatcher()
        live = {}
        for i, p in enumerate(preds):
            live[f"s{i}"] = p
            brute.add(f"s{i}", p)
            indexed.add(f"s{i}", p)
        for event in evts:
            assert indexed.match(event) == brute.match(event)
            action = data.draw(st.sampled_from(["none", "remove", "re_add"]))
            if action == "remove" and live:
                victim = data.draw(st.sampled_from(sorted(live)))
                del live[victim]
                brute.remove(victim)
                indexed.remove(victim)
            elif action == "re_add" and preds:
                sub_id = f"s{data.draw(st.integers(0, len(preds) - 1))}"
                predicate = data.draw(st.sampled_from(preds))
                live[sub_id] = predicate
                brute.remove(sub_id)
                brute.add(sub_id, predicate)
                indexed.add(sub_id, predicate)
