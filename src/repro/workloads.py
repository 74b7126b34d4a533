"""Workload generators for experiments and examples.

The paper's workloads are simple (fixed-rate publishers, group-partitioned
subscribers); real content-based deployments are skewed.  This module
provides skewed feeds as attribute factories pluggable into
:class:`~repro.client.PublisherClient` / the experiment drivers, plus
subscription-population generators for matching benchmarks.

All generators are deterministic given their seed (they use their own
``random.Random``), so experiments stay reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from .matching.ast import Predicate
from .matching.parser import parse

__all__ = ["zipf_symbols", "market_ticks", "subscription_population"]

#: An attribute factory: sequence number -> event attributes.
AttributeFactory = Callable[[int], Dict[str, Any]]


def zipf_symbols(
    symbols: Sequence[str], s: float = 1.1, seed: int = 0
) -> AttributeFactory:
    """Zipf-skewed ``symbol`` attribute (realistic market feeds: a few
    hot symbols dominate)."""
    if not symbols:
        raise ValueError("symbols must be non-empty")
    rng = random.Random(seed)
    weights = [1.0 / (rank**s) for rank in range(1, len(symbols) + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)

    def make(seq: int) -> Dict[str, Any]:
        u = rng.random()
        for index, bound in enumerate(cumulative):
            if u <= bound:
                return {"symbol": symbols[index]}
        return {"symbol": symbols[-1]}

    return make


def market_ticks(
    symbols: Sequence[str],
    base_price: float = 100.0,
    volatility: float = 0.01,
    seed: int = 0,
) -> AttributeFactory:
    """A random-walk trade feed: symbol, price, volume, side."""
    rng = random.Random(seed)
    prices = {symbol: base_price * (1 + rng.uniform(-0.2, 0.2)) for symbol in symbols}
    pick = zipf_symbols(symbols, seed=seed + 1)

    def make(seq: int) -> Dict[str, Any]:
        symbol = pick(seq)["symbol"]
        prices[symbol] *= math.exp(rng.gauss(0.0, volatility))
        return {
            "symbol": symbol,
            "price": round(prices[symbol], 2),
            "volume": rng.choice([100, 200, 500, 1000, 5000]),
            "side": rng.choice(["buy", "sell"]),
        }

    return make


@dataclass(frozen=True)
class SubscriptionSpec:
    """One generated subscription."""

    sub_id: str
    predicate: Predicate


def subscription_population(
    n: int,
    symbols: Sequence[str],
    seed: int = 0,
    equality_fraction: float = 0.5,
    range_fraction: float = 0.3,
) -> List[SubscriptionSpec]:
    """A mixed population of subscriptions over a market-tick schema.

    ``equality_fraction`` get a pure symbol-equality predicate,
    ``range_fraction`` an equality plus a price range, and the remainder
    a three-term conjunction — the mix exercises the matcher's hash
    index, threshold lists, and counting simultaneously.
    """
    if not 0 <= equality_fraction + range_fraction <= 1:
        raise ValueError("fractions must sum to at most 1")
    rng = random.Random(seed)
    out: List[SubscriptionSpec] = []
    for i in range(n):
        symbol = rng.choice(list(symbols))
        roll = rng.random()
        if roll < equality_fraction:
            predicate = parse(f"symbol = '{symbol}'")
        elif roll < equality_fraction + range_fraction:
            lo = rng.uniform(50, 150)
            predicate = parse(f"symbol = '{symbol}' and price >= {lo:.2f}")
        else:
            lo = rng.uniform(50, 150)
            volume = rng.choice([200, 500, 1000])
            predicate = parse(
                f"symbol = '{symbol}' and price >= {lo:.2f} and volume >= {volume}"
            )
        out.append(SubscriptionSpec(f"sub{i}", predicate))
    return out
