"""Unit tests for the analysis/rendering utilities."""

import io

from repro.analysis import cumulative, sparkline, write_series_csv


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series(self):
        line = sparkline([1.0] * 10)
        assert len(set(line)) == 1

    def test_peak_visible(self):
        line = sparkline([0, 0, 0, 10, 0, 0], width=6)
        assert line[3] == "@"
        assert line[0] == " "

    def test_width_respected(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) <= 51


class TestCumulative:
    def test_running_sum_in_x_order(self):
        out = cumulative([(2.0, 5.0), (1.0, 3.0)])
        assert out == [(1.0, 3.0), (2.0, 8.0)]


class TestCsv:
    def test_long_form_rows(self):
        out = io.StringIO()
        rows = write_series_csv(
            out, {"a": [(1.0, 2.0)], "b": [(0.5, 1.5), (0.7, 2.5)]}
        )
        assert rows == 3
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "series,t,value"
        assert lines[1].startswith("a,1.000000")
        assert lines[2].startswith("b,0.500000")
