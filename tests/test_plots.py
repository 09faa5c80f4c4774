"""Tests for the terminal curve rendering."""

import pytest

from repro.runtime.plots import ascii_curve


class TestAsciiCurve:
    def test_basic_render(self):
        chart = ascii_curve(
            {"A": [(0.0, 0), (50.0, 5), (100.0, 10)]},
            width=20, height=6, title="demo",
        )
        lines = chart.splitlines()
        assert lines[0] == "demo"
        assert "* A" in lines[-1]
        assert any("*" in line for line in lines)

    def test_multiple_series_distinct_glyphs(self):
        chart = ascii_curve(
            {
                "A": [(0.0, 0), (100.0, 10)],
                "B": [(0.0, 0), (100.0, 10)],
            },
            width=20, height=6,
        )
        assert "* A" in chart and "o B" in chart

    def test_empty_series_dict_rejected(self):
        with pytest.raises(ValueError):
            ascii_curve({})

    def test_tiny_chart_rejected(self):
        with pytest.raises(ValueError):
            ascii_curve({"A": [(0.0, 1)]}, width=4, height=2)

    def test_degenerate_all_zero(self):
        chart = ascii_curve({"A": [(0.0, 0)]}, width=10, height=4)
        assert "t=0" in chart

    def test_axis_labels(self):
        chart = ascii_curve({"A": [(0.0, 0), (250.0, 42)]}, width=24, height=8)
        assert "42" in chart
        assert "t=250" in chart

    def test_dimensions(self):
        chart = ascii_curve(
            {"A": [(0.0, 0), (9.0, 3)]}, width=30, height=10, title="t"
        )
        lines = chart.splitlines()
        # title + top border + height rows + bottom border + axis + legend
        assert len(lines) == 1 + 1 + 10 + 1 + 1 + 1


class TestComparisonReportChart:
    def test_report_chart_renders(self, small_bound):
        from repro.core.variants import progxe, progxe_no_order
        from repro.runtime.compare import compare_algorithms

        report = compare_algorithms(
            {"ProgXe": progxe, "NoOrder": progxe_no_order}, small_bound
        )
        chart = report.ascii_chart(width=32, height=8, title="curves")
        assert "ProgXe" in chart
        assert "curves" in chart
