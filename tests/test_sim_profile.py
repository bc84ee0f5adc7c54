"""Tests for the sim-kernel profiler."""

from repro import build_system
from repro.experiments import single_failure
from repro.sim.kernel import Simulator
from repro.sim.profile import SimProfiler, handler_key, peak_rss_kb


def test_kernel_has_no_profiler_by_default():
    sim = Simulator()
    assert sim.profiler is None
    fired = []
    sim.schedule_at(1.0, lambda: fired.append(1), label="tick")
    sim.run()
    assert fired == [1]


def test_attach_detach_roundtrip():
    sim = Simulator()
    profiler = SimProfiler().attach(sim)
    assert sim.profiler is profiler
    profiler.detach(sim)
    assert sim.profiler is None


def test_profiler_counts_events_and_groups_by_label_prefix():
    sim = Simulator()
    profiler = SimProfiler().attach(sim)
    for i in range(5):
        sim.schedule_at(float(i), lambda: None, label=f"net.deliver:{i}")
    sim.schedule_at(6.0, lambda: None, label="stable_op")
    sim.run()
    assert profiler.events_fired == 6
    # ":"-suffixed labels collapse to their prefix
    assert profiler.handlers["net.deliver"].events == 5
    assert profiler.handlers["stable_op"].events == 1
    assert profiler.total_time >= 0.0
    assert profiler.events_per_sec() > 0.0


def test_handler_key_falls_back_to_qualname():
    sim = Simulator()

    def my_handler() -> None:
        pass

    handle = sim.schedule_at(1.0, my_handler)
    key = handler_key(handle._event)
    assert "my_handler" in key


def test_heap_high_water_tracked():
    sim = Simulator()
    profiler = SimProfiler().attach(sim)
    for i in range(10):
        sim.schedule_at(float(i), lambda: None, label="tick")
    assert profiler.heap_high_water == 10
    sim.run()
    assert profiler.heap_high_water == 10


def test_snapshot_shape_and_hot_handlers():
    system = build_system(single_failure(recovery="nonblocking", profile=True))
    result = system.run()
    snap = result.extra["profile"]
    for key in ("events_fired", "total_handler_time", "wall_elapsed",
                "events_per_sec", "heap_high_water", "peak_rss_kb", "handlers"):
        assert key in snap, f"missing {key}"
    assert snap["events_fired"] == result.extra["events_processed"]
    assert snap["events_per_sec"] > 0
    assert snap["heap_high_water"] > 0
    assert snap["peak_rss_kb"] > 0
    hot = system.profiler.hot_handlers(limit=3)
    assert 1 <= len(hot) <= 3
    # hottest first
    times = [stats.total_time for _, stats in hot]
    assert times == sorted(times, reverse=True)


def test_peak_rss_positive_on_this_platform():
    assert peak_rss_kb() > 0


def test_profiler_exceptions_still_accounted():
    sim = Simulator()
    profiler = SimProfiler().attach(sim)

    def boom() -> None:
        raise RuntimeError("handler failure")

    sim.schedule_at(1.0, boom, label="boom")
    try:
        sim.run()
    except RuntimeError:
        pass
    assert profiler.events_fired == 1
    assert profiler.handlers["boom"].events == 1
