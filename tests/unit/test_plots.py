"""Unit tests for the text plotting helpers."""

import pytest

from repro.bench.plots import bar_chart, sparkline, timeline_plot


class TestSparkline:
    def test_monotone_ramp(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_resampling_width(self):
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10
        assert s[0] == "▁" and s[-1] == "█"

    def test_no_resampling_below_width(self):
        assert len(sparkline([1, 2], width=10)) == 2


class TestBarChart:
    def test_alignment_and_values(self):
        text = bar_chart(["a", "bb"], [1.0, 2.0], width=4)
        lines = text.splitlines()
        assert lines[0].startswith("a ")
        assert lines[1].startswith("bb")
        assert "████" in lines[1]
        assert lines[0].rstrip().endswith("1")

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert bar_chart([], []) == ""


class TestTimelinePlot:
    def test_empty_trace(self):
        from repro.obs import Tracer

        assert "no trace" in timeline_plot(None)
        assert "no trace" in timeline_plot(Tracer())

    def test_engine_trace_renders(self):
        import repro

        r = repro.run("road-ca-mini", "cc", machines=4, trace=True)
        text = timeline_plot(r.trace)
        assert "supersteps:" in text
        assert "active" in text
        assert "lazy" in text  # lazy-block traces carry do_local
        assert "+" in text

    def test_sync_trace_has_no_lazy_row(self):
        import repro

        r = repro.run(
            "road-ca-mini", "cc", engine="powergraph-sync",
            machines=4, trace=True,
        )
        text = timeline_plot(r.trace)
        assert "lazy" not in text
