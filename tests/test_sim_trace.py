"""Unit tests for the trace recorder."""

import io
import json

import pytest

from repro import build_system, crash_at
from repro.analysis.trace_io import dump_trace, event_to_dict
from repro.core.config import FaultConfig
from repro.sim.trace import TraceEvent, TraceRecorder

from helpers import small_config


def test_record_and_select():
    trace = TraceRecorder()
    trace.record(1.0, "net", 0, "send", dst=1)
    trace.record(2.0, "net", 1, "deliver", src=0)
    trace.record(3.0, "node", 0, "crash")
    assert len(trace) == 3
    assert len(trace.select(category="net")) == 2
    assert len(trace.select(node=0)) == 2
    assert len(trace.select(category="net", action="send")) == 1


def test_counters_track_category_action():
    trace = TraceRecorder()
    for _ in range(4):
        trace.record(0.0, "app", 1, "deliver")
    trace.record(0.0, "app", 1, "reject")
    assert trace.count("app", "deliver") == 4
    assert trace.count("app", "reject") == 1
    assert trace.count("app") == 5
    assert trace.count("missing") == 0


def test_first_and_last():
    trace = TraceRecorder()
    trace.record(1.0, "x", 0, "a")
    trace.record(2.0, "x", 1, "a")
    trace.record(3.0, "x", 2, "a")
    assert trace.first(category="x").node == 0
    assert trace.last(category="x").node == 2
    assert trace.first(category="y") is None
    assert trace.last(category="y") is None


def test_subscribe_receives_events():
    trace = TraceRecorder()
    seen = []
    trace.subscribe(seen.append)
    trace.record(1.0, "x", 0, "a")
    assert len(seen) == 1
    assert seen[0].action == "a"


def test_unsubscribe_stops_events():
    trace = TraceRecorder()
    seen = []
    trace.subscribe(seen.append)
    trace.unsubscribe(seen.append)
    trace.record(1.0, "x", 0, "a")
    assert seen == []


def test_keyless_subscriber_sees_every_event_beside_keyed_ones():
    trace = TraceRecorder(keep_events=False)
    everything, only_a = [], []
    trace.subscribe(everything.append)
    trace.subscribe(only_a.append, key="x.a")
    trace.record(1.0, "x", 0, "a")
    trace.emitter("x", "b", ("v",))(2.0, 0, 7)
    assert [e.action for e in everything] == ["a", "b"]
    assert [e.action for e in only_a] == ["a"]
    assert everything[1].details == {"v": 7}


def test_unsubscribe_from_inside_a_subscriber():
    """A subscriber may unsubscribe (itself or another) while an event is
    being published: that event still reaches everyone subscribed when it
    was recorded, the next one does not."""
    for key in (None, "x.a"):
        trace = TraceRecorder(keep_events=False)
        seen = []

        def first(event):
            seen.append(("first", event.time))
            trace.unsubscribe(first, key)
            trace.unsubscribe(third, key)

        def second(event):
            seen.append(("second", event.time))

        def third(event):
            seen.append(("third", event.time))

        for callback in (first, second, third):
            trace.subscribe(callback, key)
        trace.record(1.0, "x", 0, "a")
        trace.record(2.0, "x", 0, "a")
        assert seen == [
            ("first", 1.0), ("second", 1.0), ("third", 1.0), ("second", 2.0),
        ]
        trace.unsubscribe(second, key)
        assert trace.record(3.0, "x", 0, "a") is None


def test_event_is_a_slotted_record():
    event = TraceEvent(1.0, "net", 3, "send", {"dst": 4})
    assert not hasattr(event, "__dict__")
    assert event == TraceEvent(time=1.0, category="net", node=3, action="send",
                               details={"dst": 4})
    assert event != TraceEvent(1.0, "net", 3, "send", {"dst": 5})
    assert event != (1.0, "net", 3, "send", {"dst": 4})
    assert TraceEvent(0.0, "node", None, "start").details == {}
    assert repr(event) == (
        "TraceEvent(time=1.0, category='net', node=3, action='send', "
        "details={'dst': 4})"
    )


def test_keep_events_false_only_counts():
    trace = TraceRecorder(keep_events=False)
    trace.record(1.0, "x", 0, "a")
    assert len(trace) == 0
    assert trace.count("x", "a") == 1


def test_event_matches_filters():
    event = TraceEvent(1.0, "net", 3, "send", {"dst": 4})
    assert event.matches()
    assert event.matches(category="net")
    assert event.matches(node=3, action="send")
    assert not event.matches(category="app")
    assert not event.matches(node=4)
    assert not event.matches(action="deliver")


def test_clear_resets_everything():
    trace = TraceRecorder()
    trace.record(1.0, "x", 0, "a")
    trace.clear()
    assert len(trace) == 0
    assert trace.count("x") == 0


def test_details_stored():
    trace = TraceRecorder()
    event = trace.record(1.0, "net", 0, "send", dst=7, size=100)
    assert event.details == {"dst": 7, "size": 100}


def test_iter_select_lazy():
    trace = TraceRecorder()
    for i in range(5):
        trace.record(float(i), "x", i, "a")
    nodes = [e.node for e in trace.iter_select(category="x")]
    assert nodes == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# the packed record: an event keeps its emitter's names and values
# ----------------------------------------------------------------------
#: every BoundEmitter site in the code base and the detail names, in
#: order, that its events carry
EMITTER_FIELDS = {
    "net.send": ("dst", "mtype", "kind", "size", "msg_id"),
    "net.retransmit": ("dst", "mtype", "kind", "size", "msg_id"),
    "net.lose": ("dst", "mtype", "cause", "msg_id"),
    "net.deliver": ("src", "mtype", "kind", "msg_id"),
    "net.drop": ("src", "mtype", "msg_id"),
    "app.send": ("dst", "ssn", "deliveries"),
    "app.deliver": ("sender", "ssn", "rsn"),
    "protocol.det_stable": ("rsn", "sender", "ssn"),
}


@pytest.fixture(scope="module")
def emitted():
    """The kept events of a lossy, crashing FBL run, which reaches every
    emitter site, grouped by ``category.action``."""
    system = build_system(small_config(
        n=4, crashes=[crash_at(1, 0.02)], transport="reliable",
        faults=FaultConfig(loss_prob=0.2),
    ))
    system.run()
    events = {}
    for event in system.trace.events:
        events.setdefault(f"{event.category}.{event.action}", []).append(event)
    system.close()
    return events


@pytest.mark.parametrize("key", sorted(EMITTER_FIELDS))
def test_emitter_site_details_match_record(emitted, key):
    events = emitted[key]
    assert events
    # one name tuple per site, shared by all of its events
    assert len({id(event.fields) for event in events}) == 1
    for event in events:
        assert event.fields == EMITTER_FIELDS[key]
        assert len(event.values) == len(event.fields)
        details = event.details
        rebuilt = TraceRecorder().record(
            event.time, event.category, event.node, event.action, **details
        )
        assert rebuilt == event
        assert list(rebuilt.details) == list(details) == list(EMITTER_FIELDS[key])
        assert rebuilt.values == event.values


def test_emitter_and_record_events_are_equal_and_dump_alike():
    trace = TraceRecorder()
    emit = trace.emitter("net", "send", ("dst", "mtype", "size"))
    packed = emit(1.5, 0, 3, "app", 100)
    recorded = trace.record(1.5, "net", 0, "send", dst=3, mtype="app", size=100)
    assert packed == recorded
    assert packed.fields == recorded.fields and packed.values == recorded.values
    assert json.dumps(event_to_dict(packed)) == json.dumps(event_to_dict(recorded))
    out = io.StringIO()
    assert dump_trace(trace, out) == 2
    first, second = out.getvalue().splitlines()
    assert first == second


def test_spill_round_trip_returns_equal_events(tmp_path):
    trace = TraceRecorder(spill_path=str(tmp_path / "t.jsonl"), spill_window=2)
    emit = trace.emitter("app", "deliver", ("sender", "ssn", "rsn"))
    kept = [emit(float(i), i % 3, i, 2 * i, i + 1) for i in range(5)]
    kept.append(trace.record(9.0, "node", 1, "crash"))
    kept.append(trace.record(9.5, "cost", None, "sample", wire={"app": 40}, window=0.5))
    try:
        trace.finalize()
        assert list(trace.events) == kept
        assert [event.fields for event in trace.events] == [event.fields for event in kept]
    finally:
        trace.spill.close()


def test_details_is_a_copy():
    trace = TraceRecorder()
    recorded = trace.record(1.0, "net", 0, "send", dst=7, size=100)
    packed = trace.emitter("net", "send", ("dst", "size"))(1.0, 0, 7, 100)
    for event in (recorded, packed):
        details = event.details
        details["dst"] = 99
        details["extra"] = True
        del details["size"]
        assert event.details == {"dst": 7, "size": 100}
        assert event.details is not event.details
