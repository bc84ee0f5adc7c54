"""Unit tests for the trace recorder."""

from repro.sim.trace import TraceEvent, TraceRecorder


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
