"""Tests for the ASCII timeline renderer."""

import pytest

from repro import build_system, crash_at
from repro.analysis.timeline import (
    BLOCKED,
    CRASH,
    RECOVERED,
    TimelineRenderer,
    render_timeline,
)
from repro.sim.trace import TraceRecorder

from helpers import small_config


def test_empty_trace():
    assert render_timeline(TraceRecorder()) == "(empty trace)"


def test_width_validated():
    with pytest.raises(ValueError):
        TimelineRenderer(TraceRecorder(), width=5)


def test_failure_free_run_is_all_live():
    system = build_system(small_config(n=4, hops=10))
    system.run()
    text = render_timeline(system.trace)
    assert CRASH not in text.replace("X crash", "")
    assert text.count("n0") == 1
    for node in range(4):
        assert f"n{node}" in text


def test_crash_and_recovery_marks_present():
    system = build_system(
        small_config(n=4, hops=15, crashes=[crash_at(node=2, time=0.03)])
    )
    system.run()
    text = render_timeline(system.trace)
    lanes = {line[1:3].strip(): line for line in text.splitlines() if line.startswith("n")}
    assert CRASH in lanes["2"]
    assert RECOVERED in lanes["2"]
    # live nodes never show a crash
    assert CRASH not in lanes["0"]


def test_blocking_recovery_shows_blocked_lanes():
    system = build_system(
        small_config(n=4, recovery="blocking", hops=15,
                     crashes=[crash_at(node=2, time=0.03)])
    )
    system.run()
    text = render_timeline(system.trace)
    lanes = {line[1:3].strip(): line for line in text.splitlines() if line.startswith("n")}
    assert BLOCKED in lanes["0"]
    assert BLOCKED in lanes["1"]


def test_nonblocking_recovery_shows_no_blocked_lanes():
    system = build_system(
        small_config(n=4, recovery="nonblocking", hops=15,
                     crashes=[crash_at(node=2, time=0.03)])
    )
    system.run()
    text = render_timeline(system.trace)
    lanes = {line[1:3].strip(): line for line in text.splitlines() if line.startswith("n")}
    for node in ("0", "1", "3"):
        assert BLOCKED not in lanes[node]


def test_custom_width_respected():
    system = build_system(small_config(n=4, hops=10))
    system.run()
    text = render_timeline(system.trace, width=40)
    for line in text.splitlines():
        if line.startswith("n"):
            assert len(line) == len("n0  |") + 40 + 1


def test_legend_present():
    system = build_system(small_config(n=4, hops=10))
    system.run()
    assert "legend:" in render_timeline(system.trace)


def test_multi_restart_episode_renders_every_cycle():
    """A node that crashes again mid-recovery gets both crash marks and
    ends live: the lane must show two crash/restart cycles, not swallow
    the superseded one."""
    trace = TraceRecorder()
    trace.record(0.0, "node", 0, "start")
    trace.record(0.0, "node", 1, "start")
    # first crash: restore begins, then a second crash aborts it
    trace.record(1.0, "node", 1, "crash")
    trace.record(2.0, "node", 1, "restart_begin")
    trace.record(2.5, "node", 1, "crash")
    # second episode runs to completion
    trace.record(3.5, "node", 1, "restart_begin")
    trace.record(4.5, "node", 1, "restored")
    trace.record(5.0, "node", 1, "recovered")
    trace.record(10.0, "node", 1, "tick")
    text = render_timeline(trace, width=60)
    lane = next(l for l in text.splitlines() if l.startswith("n1"))
    assert lane.count(CRASH) == 2
    assert lane.count("R") == 2
    assert RECOVERED in lane
    # after the final recovery the lane returns to live
    assert lane.rstrip("|").endswith("=")


def test_multi_restart_episode_from_real_run():
    """failure_during_recovery: the victim crashes again while gathering;
    the timeline must show the full double-recovery without error."""
    from repro.experiments import failure_during_recovery

    system = build_system(failure_during_recovery(
        "nonblocking", detection_delay=0.5, state_bytes=100_000
    ))
    result = system.run()
    assert result.consistent
    text = render_timeline(system.trace)
    lanes = {line[1:3].strip(): line for line in text.splitlines() if line.startswith("n")}
    assert CRASH in lanes["3"]
    assert CRASH in lanes["5"]
    assert RECOVERED in lanes["3"]
    assert RECOVERED in lanes["5"]


def test_overlapping_block_intervals_from_two_failures():
    """Two crashes close together under blocking recovery: live nodes
    carry overlapping block intervals and every blocked lane renders."""
    system = build_system(
        small_config(
            n=5, recovery="blocking", hops=25,
            crashes=[crash_at(node=2, time=0.03), crash_at(node=4, time=0.05)],
        )
    )
    result = system.run()
    assert result.consistent
    # the metrics layer really saw concurrent blocking...
    intervals = [
        (i.start, i.end) for i in system.metrics.block_intervals if i.end is not None
    ]
    assert intervals, "blocking recovery produced no block intervals"
    overlapping = any(
        a_start < b_end and b_start < a_end
        for i, (a_start, a_end) in enumerate(intervals)
        for (b_start, b_end) in intervals[i + 1:]
    )
    assert overlapping, f"expected overlapping block intervals, got {intervals}"
    # ...and the renderer shows the stall on the surviving nodes
    text = render_timeline(system.trace)
    lanes = {line[1:3].strip(): line for line in text.splitlines() if line.startswith("n")}
    for node in ("0", "1", "3"):
        assert BLOCKED in lanes[node]
