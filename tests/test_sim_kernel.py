"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, 3)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_ties():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "late", priority=5)
    sim.schedule(1.0, order.append, "early", priority=-5)
    sim.run()
    assert order == ["early", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_fires_events_at_exact_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_run_advances_clock_to_until_when_idle():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append("first")
        sim.schedule(1.0, fired.append, "second")

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_max_events_limits_run():
    sim = Simulator()
    count = []

    def tick():
        count.append(1)
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run(max_events=7)
    assert len(count) == 7


def test_events_processed_counts_fired_only():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    sim.run()
    assert sim.events_processed == 1


def test_kwargs_passed_to_callback():
    sim = Simulator()
    seen = {}
    sim.schedule(1.0, lambda **kw: seen.update(kw), value=42)
    sim.run()
    assert seen == {"value": 42}


def test_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# live-event counting and heap compaction
# ----------------------------------------------------------------------
def test_live_events_excludes_cancelled():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.live_events == 5 == sim.pending_events
    handles[0].cancel()
    handles[3].cancel()
    assert sim.pending_events == 5  # corpses stay queued (lazy cancel)
    assert sim.live_events == 3
    handles[0].cancel()  # idempotent: counted once
    assert sim.live_events == 3
    sim.run()
    assert sim.live_events == 0 == sim.pending_events
    assert sim.events_processed == 3


def test_cancel_after_fire_does_not_corrupt_counter():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()  # already popped: must not decrement live accounting
    assert sim.live_events == 0
    assert sim.pending_events == 0


def test_compaction_sheds_cancelled_corpses():
    sim = Simulator(compact_min_heap=64, compact_ratio=0.5)
    # the retransmit pattern: cancel each far timer soon after arming it
    prev = None
    for _ in range(500):
        if prev is not None:
            prev.cancel()
        prev = sim.schedule(100.0, lambda: None)
    assert sim.compactions > 0
    # corpses were shed: the heap stays near its live size
    assert sim.pending_events < 128
    assert sim.live_events == 1


def test_compaction_preserves_firing_order_and_results():
    def workload(sim):
        fired = []
        prev = None
        for i in range(300):
            if prev is not None and i % 3:
                prev.cancel()
            prev = sim.schedule(50.0 + i * 0.001, fired.append, i)
            sim.schedule(0.001 * i, fired.append, 1000 + i)
        sim.run()
        return fired, sim.events_processed

    compacting = Simulator(compact_min_heap=32, compact_ratio=0.25)
    disabled = Simulator(compact_min_heap=None)
    assert workload(compacting) == workload(disabled)
    assert compacting.compactions > 0
    assert disabled.compactions == 0


def test_compaction_disabled_with_none():
    sim = Simulator(compact_min_heap=None)
    prev = None
    for _ in range(2000):
        if prev is not None:
            prev.cancel()
        prev = sim.schedule(100.0, lambda: None)
    assert sim.compactions == 0
    assert sim.pending_events == 2000  # every corpse still queued
    assert sim.live_events == 1


def test_drain_is_exact_with_cancelled_leftovers():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    doomed = sim.schedule(2.0, lambda: None)
    doomed.cancel()
    # the cancelled leftover is not remaining work
    sim.run(max_events=10)
    assert sim.events_processed == 1
    assert sim.live_events == 0


# ----------------------------------------------------------------------
# tie-break perturbation (the chaos harness's perturbed replica)
# ----------------------------------------------------------------------
def test_schedule_tiebreak_seed_shuffles_only_equal_time_and_priority():
    def run_once(seed):
        sim = Simulator(tiebreak_seed=seed)
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=1)
        for i in range(8):
            sim.schedule(1.0, fired.append, i)
        sim.schedule(0.5, fired.append, "earlier", priority=5)
        sim.run()
        return fired

    fifo = ["earlier", *range(8), "low"]
    assert run_once(None) == fifo
    shuffled = [run_once(seed) for seed in range(5)]
    assert any(order != fifo for order in shuffled)
    assert [run_once(seed) for seed in range(5)] == shuffled
    for order in shuffled:
        # an earlier time and a lower priority still fire first
        assert order[0] == "earlier" and order[-1] == "low"
        assert sorted(order[1:-1]) == list(range(8))
