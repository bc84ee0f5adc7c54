"""The kernel's intra-run scale machinery: event pool, schedule_fast.

The safety argument under test: only handle-free (``schedule_fast``)
events are ever pooled, and they are released only *after* firing -- so
a recycled Event can never be reached by a stale EventHandle, never be a
cancelled corpse, and never confuse the exact ``live_events`` counter.
"""

import pytest

from repro.sim.kernel import EVENT_POOL_MAX, SimulationError, Simulator


# ----------------------------------------------------------------------
# schedule_fast semantics
# ----------------------------------------------------------------------
def test_schedule_fast_returns_no_handle():
    sim = Simulator()
    assert sim.schedule_fast(0.0, lambda: None) is None


def test_schedule_fast_rejects_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_fast(-0.1, lambda: None)
    sim.schedule_fast(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_fast_at(0.5, lambda: None)


def test_schedule_fast_orders_identically_to_schedule():
    """Both paths share one sequence counter, so interleaving them keeps
    exact FIFO order at equal (time, priority)."""
    sim = Simulator()
    fired = []
    for i in range(10):
        if i % 2:
            sim.schedule_fast(0.5, fired.append, i)
        else:
            sim.schedule(0.5, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_schedule_fast_respects_priority():
    sim = Simulator()
    fired = []
    sim.schedule_fast(0.1, fired.append, "late", priority=1)
    sim.schedule_fast(0.1, fired.append, "early", priority=-1)
    sim.run()
    assert fired == ["early", "late"]


def test_schedule_fast_tiebreak_seed_replays_deterministically():
    def run_once(seed):
        sim = Simulator(tiebreak_seed=seed)
        fired = []
        for i in range(20):
            sim.schedule_fast(0.1, fired.append, i)
        sim.run()
        return fired

    assert run_once(7) == run_once(7)
    assert run_once(7) != list(range(20)) or run_once(11) != list(range(20))


# ----------------------------------------------------------------------
# the event pool
# ----------------------------------------------------------------------
def test_pool_recycles_fired_events():
    sim = Simulator()
    state = {"left": 500}

    def tick():
        if state["left"]:
            state["left"] -= 1
            sim.schedule_fast(0.001, tick)

    sim.schedule_fast(0.0, tick)
    sim.run()
    # the chain reuses one pooled object for every hop after the first
    assert sim.pool_reuses >= 499
    assert 1 <= sim.pool_size <= EVENT_POOL_MAX


def test_pool_never_holds_handle_backed_events():
    """schedule() events are never pooled, fired or not."""
    sim = Simulator()
    for i in range(50):
        sim.schedule(0.001 * i, lambda: None)
    sim.run()
    assert sim.pool_size == 0
    assert sim.pool_reuses == 0


def test_released_events_do_not_pin_callbacks():
    """After release, the pooled object's slots are cleared."""
    sim = Simulator()
    payload = ["sentinel"]
    sim.schedule_fast(0.0, payload.append, "x", label="pinned?")
    sim.run()
    assert sim.pool_size == 1
    pooled = sim._pool[0]
    assert pooled.args == ()
    assert pooled.kwargs is None
    assert pooled.label == ""
    assert not pooled.cancelled
    with pytest.raises(SimulationError):
        pooled.fn()  # the tripwire callback


def test_recycled_event_cannot_resurrect_cancelled_corpse():
    """Cancel a handle-backed event, then recycle pooled events through
    the same (time, priority) region: the corpse must stay dead and
    live_events must stay exact."""
    sim = Simulator()
    fired = []

    handle = sim.schedule(0.5, fired.append, "corpse")
    for i in range(10):
        sim.schedule_fast(0.5, fired.append, i)
    handle.cancel()
    assert sim.live_events == 10
    sim.run()
    assert "corpse" not in fired
    assert fired == list(range(10))
    assert sim.live_events == 0
    # recycle through another batch at a later time: still no corpse
    for i in range(10, 20):
        sim.schedule_fast(0.1, fired.append, i)
    sim.run()
    assert fired == list(range(20))


def test_pool_reuse_with_cancellations_interleaved():
    """The retransmit pattern with a pooled chain riding along: exact
    live-event accounting throughout."""
    sim = Simulator()
    state = {"prev": None, "steps": 0}

    def step():
        state["steps"] += 1
        if state["prev"] is not None:
            state["prev"].cancel()
        state["prev"] = sim.schedule(30.0, lambda: None, label="retransmit")
        if state["steps"] < 200:
            sim.schedule_fast(0.001, step)

    sim.schedule_fast(0.0, step)
    sim.run()
    assert state["steps"] == 200
    assert sim.pool_reuses >= 198
    assert sim.live_events == 0


def test_pool_interacts_with_compaction():
    """Compaction rebuilds the heap around live pooled events; ordering
    and accounting survive."""
    sim = Simulator(compact_min_heap=64, compact_ratio=0.5)
    fired = []
    handles = [sim.schedule(10.0 + i, lambda: None) for i in range(100)]
    for i in range(10):
        sim.schedule_fast(20.0 + i, fired.append, i)
    for handle in handles:
        handle.cancel()  # triggers at least one compaction
    assert sim.compactions >= 1
    assert sim.live_events == 10
    sim.run()
    assert fired == list(range(10))
    assert sim.pool_reuses + sim.pool_size >= 1


def test_pool_bounded_by_event_pool_max():
    sim = Simulator()
    # schedule far more same-instant events than the pool may retain
    for i in range(EVENT_POOL_MAX + 500):
        sim.schedule_fast(0.001, lambda: None)
    sim.run()
    assert sim.pool_size <= EVENT_POOL_MAX
