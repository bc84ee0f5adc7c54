"""Wall-clock profiling of the simulation kernel.

The simulator's *virtual* clock says nothing about where *host* time
goes; large sweeps (millions of events) need to know which handlers are
hot and how deep the event heap grows.  :class:`SimProfiler` hooks the
kernel's dispatch loop and accounts, per handler key:

* events dispatched,
* cumulative host seconds,
* the single most expensive dispatch (cost and event label),

plus kernel-wide aggregates: heap depth high-water mark, total host
time inside handlers, wall-clock span of the run, events per second,
and the process's peak RSS.

Profiling is **off by default** and zero-overhead when off: the kernel
dispatch loop tests one attribute (``sim.profiler is None``) and calls
``event.fire()`` directly.  Only with a profiler attached does dispatch
route through :meth:`SimProfiler.fire`.

Handler keys come from the event label's prefix before the first ``:``
(``"deliver:app"`` -> ``"deliver"``), falling back to the callback's
``__qualname__`` for unlabelled events — stable across runs and
parameter sizes, unlike the full labels which embed node ids.

All measurement here is host-side (``time.perf_counter``,
``resource.getrusage``): attaching a profiler cannot perturb virtual
time, event order, or any RNG stream.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Optional

try:  # resource is POSIX-only; profiling degrades gracefully without it
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    """
    if resource is None:  # pragma: no cover - non-POSIX hosts
        return None
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return raw // 1024
    return raw


class HandlerStats:
    """Accounting bucket for one handler key."""

    __slots__ = ("events", "total_time", "max_time", "max_label")

    def __init__(self) -> None:
        self.events = 0
        self.total_time = 0.0
        self.max_time = 0.0
        self.max_label = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "total_time": self.total_time,
            "max_time": self.max_time,
            "max_label": self.max_label,
        }


def handler_key(event: "Event") -> str:
    """Stable aggregation key for an event (label prefix or qualname)."""
    label = event.label
    if label:
        head, _, _ = label.partition(":")
        return head
    return getattr(event.fn, "__qualname__", repr(event.fn))


class SimProfiler:
    """Per-handler wall-clock accounting, attached via :meth:`attach`."""

    __slots__ = (
        "handlers",
        "events_fired",
        "total_time",
        "heap_high_water",
        "_first_fire",
        "_last_fire",
        "_by_label",
    )

    def __init__(self) -> None:
        self.handlers: Dict[str, HandlerStats] = {}
        self.events_fired = 0
        self.total_time = 0.0
        self.heap_high_water = 0
        self._first_fire: Optional[float] = None
        self._last_fire: Optional[float] = None
        #: event label -> its handler's bucket (a label is a kind, or a
        #: kind and a node id; unlabelled events resolve per fire)
        self._by_label: Dict[str, HandlerStats] = {}

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> "SimProfiler":
        """Install on a simulator; returns self for chaining."""
        sim.profiler = self
        return self

    @staticmethod
    def detach(sim: "Simulator") -> None:
        sim.profiler = None

    # ------------------------------------------------------------------
    def fire(self, event: "Event") -> None:
        """Dispatch ``event`` under timing (called by the kernel loop)."""
        label = event.label
        stats = self._by_label.get(label)
        if stats is None:
            key = handler_key(event)
            stats = self.handlers.get(key)
            if stats is None:
                stats = self.handlers[key] = HandlerStats()
            if label:
                self._by_label[label] = stats
        t0 = time.perf_counter()
        if self._first_fire is None:
            self._first_fire = t0
        try:
            event.fire()
        finally:
            t1 = time.perf_counter()
            self._last_fire = t1
            dt = t1 - t0
            stats.events += 1
            stats.total_time += dt
            if dt > stats.max_time:
                stats.max_time = dt
                stats.max_label = label
            self.events_fired += 1
            self.total_time += dt

    def note_heap_depth(self, depth: int) -> None:
        """Called by the kernel on every push; keeps the high-water mark."""
        if depth > self.heap_high_water:
            self.heap_high_water = depth

    # ------------------------------------------------------------------
    @property
    def wall_elapsed(self) -> float:
        """Host seconds between the first and last dispatch."""
        if self._first_fire is None or self._last_fire is None:
            return 0.0
        return self._last_fire - self._first_fire

    def events_per_sec(self) -> float:
        """Dispatch throughput over the whole profiled run."""
        elapsed = self.wall_elapsed
        if elapsed <= 0.0:
            return 0.0
        return self.events_fired / elapsed

    def hot_handlers(self, limit: int = 10) -> list:
        """``(key, HandlerStats)`` pairs, most cumulative host time first."""
        ranked = sorted(
            self.handlers.items(),
            key=lambda kv: (-kv[1].total_time, kv[0]),
        )
        return ranked[:limit]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary for ``RunResult.extra['profile']``."""
        return {
            "events_fired": self.events_fired,
            "total_handler_time": self.total_time,
            "wall_elapsed": self.wall_elapsed,
            "events_per_sec": self.events_per_sec(),
            "heap_high_water": self.heap_high_water,
            "peak_rss_kb": peak_rss_kb(),
            "handlers": {
                key: stats.as_dict() for key, stats in self.handlers.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimProfiler(events={self.events_fired}, "
            f"handlers={len(self.handlers)}, "
            f"heap_high_water={self.heap_high_water})"
        )
