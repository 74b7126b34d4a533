"""Unit tests for workload generators."""

import pytest

from repro.matching.events import Event
from repro.workloads import (
    market_ticks,
    subscription_population,
    zipf_symbols,
)


class TestZipf:
    def test_skew_favors_head(self):
        make = zipf_symbols(["A", "B", "C", "D"], s=1.2, seed=1)
        counts = {}
        for i in range(2000):
            symbol = make(i)["symbol"]
            counts[symbol] = counts.get(symbol, 0) + 1
        assert counts["A"] > counts["D"] * 2

    def test_deterministic(self):
        a = zipf_symbols(["A", "B"], seed=5)
        b = zipf_symbols(["A", "B"], seed=5)
        assert [a(i) for i in range(50)] == [b(i) for i in range(50)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_symbols([])


class TestMarketTicks:
    def test_schema(self):
        make = market_ticks(["IBM", "ACME"], seed=2)
        event = Event(make(0))
        assert set(event) == {"symbol", "price", "volume", "side"}
        assert event["symbol"] in ("IBM", "ACME")
        assert event["price"] > 0
        assert event["side"] in ("buy", "sell")

    def test_prices_random_walk(self):
        make = market_ticks(["IBM"], volatility=0.05, seed=2)
        prices = [make(i)["price"] for i in range(100)]
        assert len(set(prices)) > 50  # actually moving


class TestSubscriptionPopulation:
    def test_mix_and_determinism(self):
        a = subscription_population(100, ["IBM", "ACME"], seed=3)
        b = subscription_population(100, ["IBM", "ACME"], seed=3)
        assert [s.predicate for s in a] == [s.predicate for s in b]
        assert len({s.sub_id for s in a}) == 100

    def test_predicates_evaluate(self):
        population = subscription_population(50, ["IBM"], seed=3)
        make = market_ticks(["IBM"], seed=4)
        event = Event(make(0))
        for spec in population:
            spec.predicate.evaluate(event)  # no exceptions

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            subscription_population(10, ["A"], equality_fraction=0.8, range_fraction=0.5)
