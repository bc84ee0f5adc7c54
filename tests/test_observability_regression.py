"""Observability must be free: no simulated-time or RNG perturbation.

Spans, the metrics registry, and the kernel profiler are host-side
bookkeeping.  Turning all of them on must reproduce the seed goldens
byte-identically -- same event count, same timestamps, same digests.
Counters-only traces (``keep_trace_events=False``) drop the event list
but must keep feeding counters, which is what sweeps and benchmarks
read.
"""

import pytest

from repro import build_system, run_config
from repro.experiments import failure_during_recovery, single_failure

from helpers import small_config
from test_seed_regression import BUILDERS, GOLDEN, snapshot


@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_goldens_identical_with_all_observability_on(key):
    scenario = {
        "e1-nonblocking": lambda: build_system(single_failure(
            recovery="nonblocking", spans=True, profile=True)),
        "e1-blocking": lambda: build_system(single_failure(
            recovery="blocking", spans=True, profile=True)),
        "e2-nonblocking": lambda: build_system(failure_during_recovery(
            recovery="nonblocking", spans=True, profile=True)),
        "e2-blocking": lambda: build_system(failure_during_recovery(
            recovery="blocking", spans=True, profile=True)),
    }[key]
    assert snapshot(scenario()) == GOLDEN[key]


def test_spans_add_no_simulated_events():
    plain = build_system(single_failure(recovery="nonblocking")).run()
    observed = build_system(single_failure(recovery="nonblocking", spans=True, profile=True)).run()
    assert observed.extra["events_processed"] == plain.extra["events_processed"]
    assert observed.end_time == plain.end_time
    assert observed.digests == plain.digests


def test_counters_only_trace_still_populates_counters():
    config = small_config(n=4, hops=15, keep_trace_events=False)
    system = build_system(config)
    result = system.run()
    assert result.consistent
    # the event list is dropped...
    assert system.trace.events == []
    # ...but counters and the registry keep counting
    counters = result.extra["trace_counters"]
    assert counters.get("net.send", 0) > 0
    assert counters.get("app.deliver", 0) > 0
    assert result.extra["metrics"]["net.messages_sent"]["value"] > 0


def test_counters_only_matches_full_trace_counters():
    full = build_system(small_config(n=4, hops=15)).run()
    lean = build_system(small_config(n=4, hops=15, keep_trace_events=False)).run()
    assert lean.extra["trace_counters"] == full.extra["trace_counters"]
    assert lean.extra["events_processed"] == full.extra["events_processed"]


def test_cli_sweep_uses_counters_only_traces(capsys):
    """A grid sweep drops event lists but its numbers must not change."""
    from repro.cli import _config_from_args, build_parser, main

    argv = [
        "grid", "--knob", "n=4,5",
        "--hops", "10", "--detection-delay", "0.5",
        "--state-bytes", "100000", "--crash", "1@0.03",
    ]
    assert main(argv) == 0
    rows = {
        cells[0]: cells
        for cells in (
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("n=")
        )
    }
    assert sorted(rows) == ["n=4", "n=5"]
    # each row matches a run of the same config that keeps its events
    args = build_parser().parse_args(argv)
    for n in (4, 5):
        full = run_config(_config_from_args(args, n=n))
        _, _, worst, _, ctl, progress, consistent = rows[f"n={n}"]
        assert worst == f"{max(full.recovery_durations()):.2f}"
        assert (ctl, progress) == (
            str(full.recovery_messages()), str(full.final_progress)
        )
        assert consistent == "yes"


def test_profiler_snapshot_rides_along_without_changing_results():
    plain = build_system(single_failure(recovery="nonblocking")).run()
    profiled = build_system(single_failure(recovery="nonblocking", profile=True)).run()
    assert "profile" not in plain.extra
    snap = profiled.extra["profile"]
    assert snap["events_fired"] == plain.extra["events_processed"]
    assert snapshot_keys_match(plain, profiled)


def snapshot_keys_match(a, b) -> bool:
    return (
        a.end_time == b.end_time
        and a.digests == b.digests
        and a.extra["trace_counters"] == b.extra["trace_counters"]
    )
