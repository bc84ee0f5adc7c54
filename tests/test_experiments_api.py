"""Tests for the ready-made scenario builders (repro.experiments)."""

import pytest

from repro import build_system
from repro.experiments import (
    PAPER_DEFAULTS,
    failure_during_recovery,
    figure1,
    leader_failure,
    output_commit_scenario,
    paper_config,
    single_failure,
)


def fast(**kw):
    """Shrink the paper parameters so tests run in milliseconds."""
    kw.setdefault("detection_delay", 0.5)
    kw.setdefault("state_bytes", 100_000)
    return kw


def test_paper_defaults_match_the_evaluation():
    assert PAPER_DEFAULTS["n"] == 8
    assert PAPER_DEFAULTS["protocol_params"] == {"f": 2}
    assert PAPER_DEFAULTS["detection_delay"] == 3.0
    assert PAPER_DEFAULTS["state_bytes"] == 1_000_000


def test_single_failure_scenario():
    result = build_system(single_failure(**fast())).run()
    assert result.consistent
    assert len(result.recovery_durations()) == 1
    assert result.total_blocked_time == 0.0


def test_single_failure_blocking_variant():
    result = build_system(single_failure(recovery="blocking", **fast())).run()
    assert result.consistent
    assert result.total_blocked_time > 0.0


def test_failure_during_recovery_scenario():
    result = build_system(failure_during_recovery(**fast())).run()
    assert result.consistent
    assert len(result.recovery_durations()) == 2
    # the second failure no longer voids the gather (the paper's goto 4):
    # only the reply the dead process owed is invalidated
    assert sum(e.gather_restarts for e in result.episodes) == 0
    assert sum(e.reply_invalidations for e in result.episodes) >= 1


def test_leader_failure_scenario():
    result = build_system(leader_failure(**fast())).run()
    assert result.consistent
    leaders = {e.node for e in result.episodes if e.was_leader}
    assert len(leaders) >= 2


def test_figure1_failure_free():
    system = figure1(**fast())
    system.run()
    assert system.nodes[2].app.delivery_history == [(1, 0)]


def test_figure1_double_failure():
    system = figure1(crash_p=True, crash_q=True, **fast())
    result = system.run()
    assert result.consistent
    assert system.nodes[1].app.delivery_history == [(0, 0)]
    assert system.nodes[2].app.delivery_history == [(1, 0)]


def test_output_commit_scenario():
    result = output_commit_scenario(**fast()).run()
    assert result.consistent
    assert result.outputs_committed > 0


def test_output_commit_scenario_other_protocols():
    for protocol, recovery in [("pessimistic", "local"), ("coordinated", "coordinated")]:
        result = output_commit_scenario(
            protocol=protocol, recovery=recovery, **fast()
        ).run()
        assert result.consistent
        assert result.outputs_committed > 0


def test_overrides_flow_through():
    system = build_system(paper_config(
        "custom", n=4, workload_params={"hops": 5, "fanout": 1}, **fast()))
    assert system.config.n == 4
    result = system.run()
    assert result.consistent
