"""Tests for the experiment runner and the analysis helpers."""

import pytest

from repro import ExperimentRunner, crash_at, run_config
from repro.analysis.report import format_run_summary, format_table
from repro.analysis.stats import percentile, summarize
from repro.procs.failure import LinkFaultPlan

from helpers import small_config


class TestExperimentRunner:
    def test_runs_each_config_once_by_default(self):
        runner = ExperimentRunner()
        config = small_config(hops=8)
        sweep = runner.run([config])
        assert len(sweep.of(config.name)) == 1

    def test_names_key_results(self):
        runner = ExperimentRunner()
        a = small_config(hops=8)
        a.name = "alpha"
        b = small_config(hops=8)
        b.name = "beta"
        sweep = runner.run([a, b])
        assert set(sweep.names()) == {"alpha", "beta"}
        assert sweep.single("alpha").config_name == "alpha"

    def test_repetitions_reseed(self):
        runner = ExperimentRunner(repetitions=3)
        config = small_config(hops=8)
        config.name = "reps"
        sweep = runner.run([config])
        runs = sweep.of("reps")
        assert len(runs) == 3
        # different seeds => different jitter => different end times
        assert len({r.end_time for r in runs}) == 3

    def test_repetitions_with_crashes_rearm_plans(self):
        runner = ExperimentRunner(repetitions=2)
        config = small_config(hops=15, crashes=[crash_at(node=1, time=0.02)])
        config.name = "crashy"
        sweep = runner.run([config])
        for run in sweep.of("crashy"):
            assert len(run.recovery_durations()) == 1
        assert sweep.all_consistent()

    def test_rearms_injection_plans_spent_by_an_earlier_run(self):
        plan = LinkFaultPlan(
            category="net", action="deliver", dup_prob=1.0, duration=0.01
        )
        config = small_config(hops=8, injections=[plan], transport="reliable")
        first = run_config(config)  # fires the trigger and disarms it in place
        assert first.network.duplicates_injected > 0
        assert not plan._armed
        rerun = ExperimentRunner().run_one(config)
        assert rerun.network.duplicates_injected == first.network.duplicates_injected
        assert rerun.end_time == first.end_time

    def test_mean_over_runs(self):
        runner = ExperimentRunner(repetitions=2)
        config = small_config(hops=8)
        config.name = "m"
        sweep = runner.run([config])
        mean = sweep.mean_over_runs("m", lambda r: float(r.total_deliveries))
        assert mean > 0

    def test_single_raises_on_multiple(self):
        runner = ExperimentRunner(repetitions=2)
        config = small_config(hops=8)
        config.name = "s"
        sweep = runner.run([config])
        with pytest.raises(ValueError):
            sweep.single("s")

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            ExperimentRunner(repetitions=0)


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
