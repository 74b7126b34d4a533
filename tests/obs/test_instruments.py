"""Unit tests for the instrument registry and its children."""

import math

import pytest

from repro.obs.instruments import (
    NULL_INSTRUMENTS,
    Counter,
    Histogram,
    Instruments,
    NullInstruments,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("events_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("events_total")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Instruments().gauge("depth")
        g.set(10.0)
        g.inc(3)
        g.dec()
        assert g.value == 12.0


class TestHistogram:
    def test_observe_buckets_cumulatively(self):
        h = Histogram("lat", boundaries=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 2.0, 7.0, 100.0):
            h.observe(v)
        # le is an inclusive upper bound (Prometheus semantics).
        assert h.bucket_pairs() == [
            (1.0, 2),
            (5.0, 3),
            (10.0, 4),
            (math.inf, 5),
        ]
        assert h.count == 5
        assert h.sum == pytest.approx(110.5)

    def test_no_per_sample_storage(self):
        h = Histogram("lat", boundaries=(1.0,))
        for i in range(10_000):
            h.observe(float(i))
        # State is exactly the fixed-size buckets plus sum/count.
        assert len(h.counts) == 1
        assert h.count == 10_000

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", boundaries=(5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", boundaries=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_child(self):
        reg = Instruments()
        a = reg.counter("x_total", broker="b1")
        b = reg.counter("x_total", broker="b1")
        assert a is b
        assert len(reg) == 1

    def test_distinct_labels_make_distinct_children(self):
        reg = Instruments()
        a = reg.counter("x_total", broker="b1")
        b = reg.counter("x_total", broker="b2")
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert reg.total("x_total") == 5.0

    def test_kind_conflict_raises(self):
        reg = Instruments()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_label_schema_conflict_raises(self):
        reg = Instruments()
        reg.counter("x_total", broker="b1")
        with pytest.raises(ValueError):
            reg.counter("x_total", link="l1")

    def test_histogram_boundary_mismatch_raises(self):
        reg = Instruments()
        reg.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", boundaries=(1.0, 3.0))

    def test_families_sorted_and_get(self):
        reg = Instruments()
        reg.counter("b_total", broker="x")
        reg.gauge("a_gauge")
        assert reg.names() == ["a_gauge", "b_total"]
        assert [name for name, *_ in reg.families()] == ["a_gauge", "b_total"]
        assert reg.get("b_total", broker="x") is not None
        assert reg.get("b_total", broker="y") is None
        assert reg.get("missing") is None

    def test_help_kept_from_first_non_empty(self):
        reg = Instruments()
        reg.counter("x_total")
        reg.counter("x_total", help="late help")
        (_, _, help_text, _), = list(reg.families())
        assert help_text == "late help"


class TestNullInstruments:
    def test_all_instruments_are_shared_noops(self):
        null = NullInstruments()
        c = null.counter("anything", whatever="yes")
        assert c is NULL_INSTRUMENTS.counter("other")
        c.inc()
        c.inc(-5)  # even invalid increments are ignored on the null path
        null.gauge("g").set(3.0)
        null.histogram("h").observe(1.0)
        assert null.names() == []
        assert len(null) == 0


class _FakeAccountant:
    def __init__(self):
        self.charges = []

    def charge(self, cost, category):
        self.charges.append((cost, category))
        return 0.0
