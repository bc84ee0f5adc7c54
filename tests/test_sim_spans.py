"""Tests for causal spans and the recovery critical-path extractor."""

import pytest

from repro import build_system, crash_at
from repro.experiments import single_failure
from repro.sim.spans import (
    PHASE_COMPONENT,
    SpanTracker,
    children_of,
    recovery_critical_paths,
    spans_from_trace,
)
from repro.sim.trace import TraceRecorder

from helpers import small_config


# ----------------------------------------------------------------------
# SpanTracker mechanics
# ----------------------------------------------------------------------
def test_disabled_tracker_records_nothing():
    trace = TraceRecorder()
    assert not trace.spans.enabled
    sid = trace.spans.begin("x", 0, 1.0)
    assert sid is None
    trace.spans.end(sid, 2.0)  # must be a safe no-op
    assert trace.events == []
    assert trace.spans.open_count() == 0


def test_begin_end_roundtrip():
    trace = TraceRecorder()
    trace.spans.enable()
    sid = trace.spans.begin("recovery.detect", 3, 1.0, crash_count=1)
    assert sid is not None
    assert trace.spans.open_count() == 1
    trace.spans.end(sid, 2.5, detected=True)
    assert trace.spans.open_count() == 0
    spans = spans_from_trace(trace)
    assert len(spans) == 1
    span = spans[0]
    assert span.kind == "recovery.detect"
    assert span.node == 3
    assert span.start == 1.0 and span.end == 2.5
    assert span.closed and span.duration() == 1.5
    assert span.attrs == {"crash_count": 1, "detected": True}


def test_span_ids_unique_and_parent_links_surface():
    trace = TraceRecorder()
    trace.spans.enable()
    parent = trace.spans.begin("recovery.episode", 1, 0.0)
    child_a = trace.spans.begin("recovery.detect", 1, 0.0, parent=parent)
    child_b = trace.spans.begin("recovery.restore", 1, 1.0, parent=parent)
    linked = trace.spans.begin("recovery.episode", 1, 2.0, links=(parent,))
    assert len({parent, child_a, child_b, linked}) == 4
    for sid in (child_b, child_a, linked, parent):
        trace.spans.end(sid, 3.0)
    spans = {s.span_id: s for s in spans_from_trace(trace)}
    assert spans[child_a].parent == parent
    assert spans[child_b].parent == parent
    assert spans[linked].links == (parent,)
    tree = children_of(list(spans.values()))
    assert [s.span_id for s in tree[parent]] == [child_a, child_b]


def test_unclosed_span_survives_extraction_as_open():
    trace = TraceRecorder()
    trace.spans.enable()
    sid = trace.spans.begin("node.blocked", 2, 1.0)
    assert trace.spans.open_count() == 1
    spans = spans_from_trace(trace)
    assert len(spans) == 1
    assert not spans[0].closed
    assert spans[0].end is None
    assert spans[0].duration(horizon=4.0) == 3.0
    # unused: silence the linter about the deliberate leak
    assert sid is not None


def test_end_unknown_span_is_noop():
    trace = TraceRecorder()
    trace.spans.enable()
    trace.spans.end(999, 1.0)
    assert trace.events == []


def test_tracker_is_attached_to_every_recorder():
    assert isinstance(TraceRecorder().spans, SpanTracker)


# ----------------------------------------------------------------------
# end-to-end spans from real runs
# ----------------------------------------------------------------------
def test_single_failure_emits_the_full_phase_ladder():
    system = build_system(single_failure(recovery="nonblocking", spans=True))
    result = system.run()
    assert result.consistent
    spans = spans_from_trace(system.trace)
    kinds = sorted({s.kind for s in spans})
    for kind in ("recovery.episode", "recovery.detect", "recovery.restore",
                 "recovery.gather", "recovery.gather_round",
                 "recovery.replay", "storage.read", "node.checkpoint"):
        assert kind in kinds, f"missing span kind {kind}"
    # every span closed: no leaks at quiescence
    assert system.trace.spans.open_count() == 0
    episode = next(s for s in spans if s.kind == "recovery.episode")
    phases = [s for s in spans if s.parent == episode.span_id]
    assert [p.kind for p in phases] == [
        "recovery.detect", "recovery.restore", "recovery.gather",
        "recovery.gather_round", "recovery.replay",
    ]


def test_blocking_recovery_emits_block_spans():
    config = small_config(
        n=4, recovery="blocking", hops=15,
        crashes=[crash_at(node=2, time=0.03)], spans=True,
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent
    blocked = [s for s in spans_from_trace(system.trace) if s.kind == "node.blocked"]
    assert blocked, "blocking recovery produced no node.blocked spans"
    assert all(s.closed for s in blocked)
    # block spans belong to live nodes, never the victim
    assert all(s.node != 2 for s in blocked)


def test_crash_mid_recovery_links_superseding_episode():
    # the same victim crashes again while restoring (detection ends at
    # 0.53, restore runs to ~0.65): the second crash supersedes episode 1
    config = small_config(
        n=4, recovery="nonblocking", hops=15,
        crashes=[crash_at(node=2, time=0.03), crash_at(node=2, time=0.6)],
        spans=True,
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent
    spans = spans_from_trace(system.trace)
    episodes = [s for s in spans if s.kind == "recovery.episode"]
    aborted = [s for s in episodes if s.attrs.get("aborted")]
    linked = [s for s in episodes if s.links]
    assert aborted, "the superseded episode must be marked aborted"
    assert linked, "the superseding episode must link its predecessor"
    assert linked[0].links[0] == aborted[0].span_id


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
def test_critical_path_sums_to_episode_duration():
    system = build_system(single_failure(recovery="nonblocking", spans=True))
    result = system.run()
    paths = recovery_critical_paths(system.trace)
    assert len(paths) == 1
    path = paths[0]
    episode = result.episodes[0]
    assert path.node == episode.node
    assert path.total == pytest.approx(episode.total_duration, abs=1e-12)
    # segments tile [crash, complete] with no gaps or overlap
    assert path.segments[0].start == path.start
    assert path.segments[-1].end == path.end
    for a, b in zip(path.segments, path.segments[1:]):
        assert a.end == b.start
    components = path.components()
    assert sum(components.values()) == pytest.approx(path.total, abs=1e-12)
    # E1's recovery is detection-bound, storage second (the paper's point)
    assert path.dominant() == "detection"
    assert components["storage"] > components["control"]


def test_critical_path_node_filter_and_empty_cases():
    system = build_system(single_failure(recovery="nonblocking", spans=True))
    system.run()
    assert recovery_critical_paths(system.trace, node=0) == []
    # no spans recorded -> no paths, not an error
    plain = build_system(single_failure(recovery="nonblocking"))
    plain.run()
    assert recovery_critical_paths(plain.trace) == []


def test_phase_component_map_covers_every_phase_kind():
    assert set(PHASE_COMPONENT) == {
        "recovery.detect", "recovery.restore",
        "recovery.gather", "recovery.replay",
    }
