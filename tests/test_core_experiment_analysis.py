"""Tests for the analysis helpers."""

import pytest

from repro import crash_at
from repro.analysis.report import format_run_summary, format_table
from repro.analysis.stats import percentile, summarize

from helpers import small_config


class TestStats:
    def test_summarize_basics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == 2.5

    def test_summarize_single_value(self):
        summary = summarize([7.0])
        assert summary.std == 0.0
        assert summary.p95 == 7.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0
        assert percentile([0.0, 10.0], 0.0) == 0.0
        assert percentile([0.0, 10.0], 1.0) == 10.0

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 123456.0]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_run_summary_mentions_key_figures(self):
        from repro.core.system import run_config

        config = small_config(hops=10, crashes=[crash_at(node=1, time=0.02)])
        result = run_config(config)
        text = format_run_summary(result, crashed=[1])
        assert "recovery durations" in text
        assert "blocked time" in text
        assert "consistent: True" in text
