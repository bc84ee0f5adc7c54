"""Observability must be free: no simulated-time or RNG perturbation.

Spans, the metrics registry, and the kernel profiler are host-side
bookkeeping.  Turning all of them on must reproduce the seed goldens
byte-identically -- same event count, same timestamps, same digests.
Counters-only traces (``keep_trace_events=False``) drop the event list
but must keep feeding counters, which is what sweeps and benchmarks
read.
"""

import dataclasses

import pytest

from repro import build_system, run_config
from repro.core.config import FaultConfig
from repro.experiments import failure_during_recovery, single_failure
from repro.procs.failure import crash_at, crash_on
from repro.runner import TrialSpec
from repro.sim.trace import BoundEmitter

from helpers import e2e_workloads, small_config
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


def _one_per_fleet_stack():
    specs = e2e_workloads()["sweep_fleet"].specs(1000, 0.1)
    return {spec.label.split("-n4-")[0]: spec.config for spec in specs if "-n4-" in spec.label}


EXACT_COUNTER_CONFIGS = {
    **_one_per_fleet_stack(),
    "faulty-reliable-transport": small_config(
        n=4, hops=15, crashes=[crash_at(2, 0.002)], transport="reliable",
        faults=FaultConfig(loss_prob=0.2, dup_prob=0.1, reorder_prob=0.1),
        keep_trace_events=False,
    ),
    "crash-on-net-deliver": small_config(
        n=6, hops=15, keep_trace_events=False, crashes=[
            crash_at(3, 0.002),
            crash_on(5, "net", "deliver", match_node=5,
                     match_details={"mtype": "depinfo_request"}, immediate=True),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_COUNTER_CONFIGS))
def test_counters_only_counts_exactly_what_a_kept_or_sanitized_run_counts(name):
    """An emitter nobody keeps or hears is never called; its records are
    still counted, one by one, at the call site."""
    config = EXACT_COUNTER_CONFIGS[name]

    def counters(**overrides):
        run = TrialSpec(config=dataclasses.replace(config, **overrides)).materialize()
        return run_config(run).extra["trace_counters"]

    lean = counters()
    assert lean.get("app.deliver", 0) > 0
    assert counters(keep_trace_events=True) == lean
    sanitized = counters(sanitize=True)
    # the sanitizer turns spans on, and spans are records of their own
    assert {k: v for k, v in sanitized.items() if not k.startswith("span.")} == lean


def test_failure_free_fbl_with_observers_off_never_calls_an_emitter(monkeypatch):
    calls = []
    call = BoundEmitter.__call__

    def counted(self, *args):
        calls.append(self)
        return call(self, *args)

    monkeypatch.setattr(BoundEmitter, "__call__", counted)
    (spec,) = e2e_workloads()["steady_fbl"].specs(1000, 0.1)
    result = run_config(spec.materialize())
    counters = result.extra["trace_counters"]
    assert calls == []
    assert counters["net.send"] == counters["net.deliver"] == counters["app.send"] > 0
    assert counters["app.deliver"] > 0 and counters["protocol.det_stable"] > 0


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
