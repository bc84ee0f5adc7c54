"""Unit tests for the trace recorder."""

import io
import json

import pytest

from repro import build_system, crash_at
from repro.analysis.trace_io import dump_trace, event_to_dict, load_trace
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
    trace.record(1.0, "net", 0, "send", dst=7, size=100)
    (event,) = trace.events
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
        rebuilt_trace = TraceRecorder()
        rebuilt_trace.record(
            event.time, event.category, event.node, event.action, **details
        )
        (rebuilt,) = rebuilt_trace.events
        assert rebuilt == event
        assert list(rebuilt.details) == list(details) == list(EMITTER_FIELDS[key])
        assert rebuilt.values == event.values


def test_emitter_and_record_events_are_equal_and_dump_alike():
    trace = TraceRecorder()
    emit = trace.emitter("net", "send", ("dst", "mtype", "size"))
    emit(1.5, 0, 3, "app", 100)
    trace.record(1.5, "net", 0, "send", dst=3, mtype="app", size=100)
    packed, recorded = trace.events
    assert packed == recorded
    assert packed.fields == recorded.fields and packed.values == recorded.values
    assert json.dumps(event_to_dict(packed)) == json.dumps(event_to_dict(recorded))
    out = io.StringIO()
    assert dump_trace(trace, out) == 2
    first, second = out.getvalue().splitlines()
    assert first == second


def test_spill_round_trip_returns_equal_events(tmp_path):
    trace = TraceRecorder(spill_path=str(tmp_path / "t.jsonl"), spill_window=2)
    memory = TraceRecorder()
    for recorder in (trace, memory):
        emit = recorder.emitter("app", "deliver", ("sender", "ssn", "rsn"))
        for i in range(5):
            emit(float(i), i % 3, i, 2 * i, i + 1)
        recorder.record(9.0, "node", 1, "crash")
        recorder.record(9.5, "cost", None, "sample", wire={"app": 40}, window=0.5)
    kept = list(memory.events)
    try:
        trace.finalize()
        assert list(trace.events) == kept
        assert [event.fields for event in trace.events] == [event.fields for event in kept]
    finally:
        trace.spill.close()


def test_details_is_a_copy():
    trace = TraceRecorder()
    trace.record(1.0, "net", 0, "send", dst=7, size=100)
    trace.emitter("net", "send", ("dst", "size"))(1.0, 0, 7, 100)
    recorded, packed = trace.events
    for event in (recorded, packed):
        details = event.details
        details["dst"] = 99
        details["extra"] = True
        del details["size"]
        assert event.details == {"dst": 7, "size": 100}
        assert event.details is not event.details


# ----------------------------------------------------------------------
# the columnar store: one flat row per stream, events built on read
# ----------------------------------------------------------------------
def _interleaved():
    """A recorder with three streams recorded in turn, and the events
    a list of them would hold, in record order."""
    trace = TraceRecorder()
    send = trace.emitter("net", "send", ("dst", "size"))
    deliver = trace.emitter("net", "deliver", ("src",))
    expected = []
    for i in range(6):
        send(float(i), i % 2, i + 1, 10 * i)
        expected.append(TraceEvent(float(i), "net", i % 2, "send", {"dst": i + 1, "size": 10 * i}))
        if i % 2:
            deliver(i + 0.5, i % 2, i)
            expected.append(TraceEvent(i + 0.5, "net", i % 2, "deliver", {"src": i}))
        if i % 3 == 0:
            trace.record(i + 0.25, "node", None, "tick")
            expected.append(TraceEvent(i + 0.25, "node", None, "tick"))
    return trace, expected


def test_store_reads_interleaved_streams_back_in_record_order():
    trace, expected = _interleaved()
    events = list(trace.events)
    assert events == expected
    assert [event.time for event in events] == [event.time for event in expected]
    assert [list(event.details) for event in events] == [list(e.details) for e in expected]


def test_store_reads_like_a_list():
    trace, expected = _interleaved()
    events = trace.events
    assert len(events) == len(expected) == len(trace)
    assert events and not TraceRecorder().events
    assert events[0] == expected[0] and events[-1] == expected[-1]
    for i in range(-len(expected), len(expected)):
        assert events[i] == expected[i]
    with pytest.raises(IndexError):
        events[len(expected)]
    with pytest.raises(IndexError):
        events[-len(expected) - 1]
    assert events[2:5] == expected[2:5]
    assert events[-3:] == expected[-3:]
    assert events[::2] == expected[::2]
    assert list(reversed(events)) == expected[::-1]
    assert events == expected and events != expected[:-1]
    assert TraceRecorder().events == []
    assert events != []
    assert trace.last("net", action="send") == expected[-2]


def test_record_under_one_key_with_other_kwargs_opens_another_stream():
    trace = TraceRecorder()
    trace.record(1.0, "cost", None, "sample", wire=1)
    trace.record(2.0, "cost", None, "sample", wire=2, window=0.5)
    trace.record(3.0, "cost", None, "sample", wire=3)
    trace.record(4.0, "cost", None, "sample", window=0.5, wire=4)
    assert len(trace.events._streams) == 3
    assert [event.details for event in trace.events] == [
        {"wire": 1}, {"wire": 2, "window": 0.5}, {"wire": 3}, {"window": 0.5, "wire": 4},
    ]
    assert [list(event.details) for event in trace.events][-1] == ["window", "wire"]
    assert trace.counters == {"cost.sample": 4}


def test_store_clear_drops_records_and_keeps_taking_them():
    trace, _ = _interleaved()
    emit = trace.emitter("net", "send", ("dst", "size"))
    trace.clear()
    assert len(trace.events) == 0 and trace.events == [] and trace.counters == {}
    emit(7.0, 1, 2, 3)
    trace.record(8.0, "node", 0, "crash")
    assert trace.events == [
        TraceEvent(7.0, "net", 1, "send", {"dst": 2, "size": 3}),
        TraceEvent(8.0, "node", 0, "crash"),
    ]


def test_subscriber_and_store_see_equal_events():
    trace = TraceRecorder()
    seen, keyed = [], []
    trace.subscribe(seen.append)
    trace.subscribe(keyed.append, key="net.send")
    emit = trace.emitter("net", "send", ("dst", "size"))
    returned = [emit(0.5, 1, 2, 100), trace.record(1.0, "node", 1, "crash", reason="x")]
    assert returned == seen == list(trace.events)
    assert keyed == [seen[0]]


def test_emitter_returns_none_unless_a_subscriber_was_handed_the_event():
    trace = TraceRecorder()
    emit = trace.emitter("net", "send", ("dst",))
    assert emit(0.0, 0, 1) is None
    assert trace.record(0.0, "node", 0, "crash") is None
    trace.subscribe(lambda event: None, key="node.crash")
    assert emit(1.0, 0, 1) is None
    assert trace.record(1.0, "node", 0, "crash") == TraceEvent(1.0, "node", 0, "crash")
    assert len(trace.events) == 4


def test_dump_load_dump_is_byte_identical():
    system = build_system(small_config(n=4, crashes=[crash_at(1, 0.02)]))
    system.run()
    first = io.StringIO()
    count = dump_trace(system.trace, first)
    system.close()
    assert count > 100
    second = io.StringIO()
    assert dump_trace(load_trace(io.StringIO(first.getvalue())), second) == count
    assert second.getvalue() == first.getvalue()


def test_arity_mismatch_raises_and_leaves_the_store_unchanged():
    trace = TraceRecorder()
    emit = trace.emitter("net", "send", ("dst", "mtype"))
    emit(0.0, 0, 1, "app")
    before = list(trace.events)
    for values in ((1,), (1, "app", "extra"), ()):
        with pytest.raises(ValueError):
            emit(1.0, 0, *values)
    assert list(trace.events) == before
    emit(2.0, 0, 2, "ack")
    assert [event.details for event in trace.events] == [
        {"dst": 1, "mtype": "app"}, {"dst": 2, "mtype": "ack"},
    ]


# ----------------------------------------------------------------------
# counting: an emitter keeps its own count, and calls only when live
# ----------------------------------------------------------------------
def test_emitter_live_follows_who_keeps_or_hears():
    trace = TraceRecorder(keep_events=False)
    send = trace.emitter("net", "send", ("dst",))
    deliver = trace.emitter("net", "deliver", ("src",))
    assert trace.emitter("net", "send", ("dst",)) is send
    assert not send.live and not deliver.live
    listener = lambda event: None  # noqa: E731
    trace.subscribe(listener, key="net.send")
    assert send.live and not deliver.live
    trace.subscribe(listener)
    assert send.live and deliver.live
    trace.unsubscribe(listener, key="net.send")
    assert send.live and deliver.live
    trace.unsubscribe(listener)
    assert not send.live and not deliver.live
    kept = TraceRecorder()
    assert kept.emitter("net", "send", ("dst",)).live


def test_counters_merge_record_and_emitter_counts():
    trace = TraceRecorder(keep_events=False)
    send = trace.emitter("net", "send", ("dst",))
    other = trace.emitter("net", "send", ("dst", "size"))
    trace.emitter("net", "deliver", ("src",))
    send.count += 2
    other(1.0, 0, 3, 100)
    trace.record(2.0, "net", 0, "send", dst=4)
    trace.record(2.0, "node", 0, "crash")
    # a stream never recorded is absent, and each read is a new dict
    assert trace.counters == {"net.send": 4, "node.crash": 1}
    assert trace.count("net") == 4
    trace.counters["net.send"] = 0
    assert trace.counters["net.send"] == 4
    trace.clear()
    assert trace.counters == {} and send.count == 0


def test_subscriber_added_mid_run_hears_every_record_while_subscribed():
    config = small_config(n=4, hops=15, keep_trace_events=False)
    plain = build_system(config).run().extra["trace_counters"]
    system = build_system(small_config(n=4, hops=15, keep_trace_events=False))
    trace = system.trace
    heard, keyed, window = [], [], {}

    def on(event):
        heard.append(f"{event.category}.{event.action}")

    def on_deliver(event):
        keyed.append(event)

    def start():
        window["from"] = trace.counters
        trace.subscribe(on)
        trace.subscribe(on_deliver, key="app.deliver")

    def stop():
        trace.unsubscribe(on)
        trace.unsubscribe(on_deliver, key="app.deliver")
        window["to"] = trace.counters

    system.sim.schedule_at(0.001, start)
    system.sim.schedule_at(0.003, stop)
    counters = system.run().extra["trace_counters"]
    assert counters == plain
    during = {
        key: count - window["from"].get(key, 0)
        for key, count in window["to"].items()
        if count != window["from"].get(key, 0)
    }
    assert during["net.send"] > 0 and during["app.deliver"] > 0
    assert {key: heard.count(key) for key in set(heard)} == during
    assert len(keyed) == during["app.deliver"]
    assert all(event.category == "app" and event.action == "deliver" for event in keyed)
