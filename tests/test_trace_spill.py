"""Streaming (spill-to-disk) traces.

A ``TraceRecorder`` with a spill path must behave observably like the
plain in-memory recorder -- same query results, same ``repro trace``
output, same spans -- while holding only a bounded window of events in
memory.  The one inherent JSON-round-trip difference (tuples inside
``details`` come back as lists) is exactly what ``dump_trace`` /
``load_trace`` already do.
"""

import gc
import json
import os

import pytest

from repro import build_system
from repro.analysis.trace_io import dump_trace, load_trace
from repro.runner import TrialSpec, run_trial
from repro.sim.spans import spans_from_trace
from repro.sim.trace import TraceRecorder, TraceSpillLog

from helpers import small_config
from test_seed_regression import BUILDERS, GOLDEN, snapshot


# ----------------------------------------------------------------------
# TraceSpillLog unit behaviour
# ----------------------------------------------------------------------
@pytest.fixture
def recorder(tmp_path):
    """Makes spill-backed recorders; their files are closed after the test."""
    logs = []

    def make(window):
        trace = TraceRecorder(spill_path=str(tmp_path / "t.jsonl"), spill_window=window)
        logs.append(trace.spill)
        return trace

    yield make
    for log in logs:
        log.close()


def _fill(trace, count):
    for i in range(count):
        trace.record(float(i), "cat", i % 3, "act", i=i)


def test_window_stays_bounded(recorder):
    trace = recorder(10)
    _fill(trace, 100)
    spill = trace.spill
    assert spill is not None
    assert len(spill._window) <= 10
    assert len(trace.events) == 100
    assert trace.counters["cat.act"] == 100


def test_iteration_replays_spilled_prefix_in_order(recorder):
    trace = recorder(7)
    _fill(trace, 50)
    times = [e.time for e in trace.events]
    assert times == [float(i) for i in range(50)]


def test_query_parity_with_in_memory_recorder(recorder):
    plain = TraceRecorder()
    spilled = recorder(5)
    _fill(plain, 40)
    _fill(spilled, 40)

    def strip(events):
        return [(e.time, e.category, e.node, e.action, e.details) for e in events]

    assert strip(spilled.select("cat")) == strip(plain.select("cat"))
    assert strip(spilled.select(node=1)) == strip(plain.select(node=1))
    assert strip(list(spilled.iter_select(action="act"))) == strip(
        list(plain.iter_select(action="act"))
    )
    assert spilled.first(node=2).time == plain.first(node=2).time
    assert spilled.last(node=2).time == plain.last(node=2).time
    assert len(spilled) == len(plain)


def test_last_reads_through_the_window(recorder):
    """A reversed scan that misses the in-memory window must reach the
    spilled prefix."""
    trace = recorder(5)
    trace.record(0.0, "rare", 9, "needle")
    _fill(trace, 30)
    found = trace.last(category="rare")
    assert found is not None and found.node == 9


def test_finalize_makes_file_complete_and_loadable(recorder, tmp_path):
    path = tmp_path / "t.jsonl"
    trace = recorder(10)
    _fill(trace, 25)
    trace.finalize()
    lines = [json.loads(l) for l in path.read_text().splitlines() if l]
    assert len(lines) == 25
    assert lines[0] == {
        "time": 0.0, "category": "cat", "node": 0, "action": "act",
        "details": {"i": 0},
    }
    loaded = load_trace(str(path))
    assert len(loaded.events) == 25
    assert loaded.counters["cat.act"] == 25


def test_clear_truncates_file_and_window(recorder, tmp_path):
    path = tmp_path / "t.jsonl"
    trace = recorder(4)
    _fill(trace, 20)
    trace.clear()
    assert len(trace.events) == 0
    assert not list(trace.events)
    trace.finalize()
    assert path.read_text() == ""
    # the log is still writable after clear
    _fill(trace, 3)
    assert len(trace.events) == 3


def test_spill_ignored_when_keep_events_off(tmp_path):
    trace = TraceRecorder(
        keep_events=False, spill_path=str(tmp_path / "t.jsonl"), spill_window=4
    )
    assert trace.spill is None
    assert trace.events == []


def test_append_after_finalize_still_lands_in_file(tmp_path):
    path = tmp_path / "t.jsonl"
    log = TraceSpillLog(str(path), window=4)
    trace = TraceRecorder()
    trace.events = log
    _fill(trace, 6)
    log.finalize()
    _fill(trace, 2)
    log.finalize()
    assert len(log) == 8
    assert [e.time for e in log] == [float(i) for i in range(6)] + [0.0, 1.0]
    log.close()


# ----------------------------------------------------------------------
# full-system behaviour
# ----------------------------------------------------------------------
@pytest.fixture
def spilled_system(tmp_path):
    """Builds spill-backed systems; each is closed after the test."""
    systems = []

    def make(**overrides):
        systems.append(build_system(small_config(
            n=4, hops=15,
            trace_spill_path=str(tmp_path / "trace.jsonl"),
            trace_spill_window=50,
            **overrides,
        )))
        return systems[-1]

    yield make
    for system in systems:
        system.close()


def test_system_run_with_spill_matches_plain_run(spilled_system):
    plain = build_system(small_config(n=4, hops=15)).run()
    spilled = spilled_system().run()
    assert spilled.extra["trace_counters"] == plain.extra["trace_counters"]
    assert spilled.extra["events_processed"] == plain.extra["events_processed"]
    assert spilled.end_time == plain.end_time
    assert spilled.digests == plain.digests


def test_system_spill_file_is_repro_trace_compatible(spilled_system, tmp_path):
    system = spilled_system()
    system.run()
    path = tmp_path / "trace.jsonl"
    loaded = load_trace(str(path))
    assert len(loaded.events) == len(system.trace.events)
    assert loaded.counters == system.trace.counters


def test_dump_trace_reads_through_spill(spilled_system, tmp_path):
    plain_sys = build_system(small_config(n=4, hops=15))
    plain_sys.run()
    plain_out = tmp_path / "plain.jsonl"
    dump_trace(plain_sys.trace, str(plain_out))

    spill_sys = spilled_system()
    spill_sys.run()
    spill_out = tmp_path / "from_spill.jsonl"
    dump_trace(spill_sys.trace, str(spill_out))

    plain_lines = [json.loads(l) for l in plain_out.read_text().splitlines()]
    spill_lines = [json.loads(l) for l in spill_out.read_text().splitlines()]
    assert spill_lines == plain_lines


def test_spans_reconstruct_from_spilled_trace(spilled_system, tmp_path):
    system = spilled_system(spans=True)
    system.run()
    spans = spans_from_trace(system.trace)
    assert spans, "expected recovery/checkpoint spans in a crash run"
    # and from the raw spill file via load_trace, identically
    loaded = load_trace(str(tmp_path / "trace.jsonl"))
    assert len(spans_from_trace(loaded)) == len(spans)


def test_sanitizer_green_with_spill(spilled_system):
    result = spilled_system(sanitize=True).run()
    assert result.consistent
    assert result.extra["sanitizer"]["violations"] == []


def test_cli_run_with_trace_spill(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "spill.jsonl"
    code = main([
        "run", "--n", "4", "--hops", "10", "--crash", "1@0.03",
        "--detection-delay", "0.5", "--state-bytes", "100000",
        "--trace-spill", str(path), "--trace-spill-window", "25",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "streamed" in out
    assert path.exists() and path.stat().st_size > 0
    assert len(load_trace(str(path)).events) > 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_run_trial_releases_the_spill_file(tmp_path):
    """A finished trial holds no descriptor, even with the collector off
    (nothing else would close the file), and the file is the whole trace."""
    path = tmp_path / "trace.jsonl"
    spec = TrialSpec(small_config(
        n=4, hops=15, trace_spill_path=str(path), trace_spill_window=50,
    ))
    before = len(os.listdir("/proc/self/fd"))
    gc.disable()
    try:
        trials = [run_trial(spec) for _ in range(5)]
        held = len(os.listdir("/proc/self/fd")) - before
    finally:
        gc.enable()
    assert held == 0
    assert load_trace(str(path)).counters == trials[-1].trace_counters


# ----------------------------------------------------------------------
# goldens: pool + spill must be invisible to the simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_goldens_byte_identical_with_spill_and_pool(key, tmp_path):
    """The event pool is always on (schedule_fast is used by node
    restarts and every network delivery), so the plain goldens already
    cover it; this run adds the streaming-trace sink on top."""
    recovery = "nonblocking" if key.endswith("nonblocking") else "blocking"
    from repro.experiments import failure_during_recovery, single_failure

    builder = single_failure if key.startswith("e1") else failure_during_recovery
    system = build_system(builder(
        recovery=recovery,
        trace_spill_path=str(tmp_path / "g.jsonl"),
        trace_spill_window=64,
    ))
    try:
        assert snapshot(system) == GOLDEN[key]
    finally:
        system.close()
