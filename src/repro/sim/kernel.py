"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event heap.  Everything
else in the reproduction (network, stable storage, failure detector,
protocol state machines) is expressed as callbacks scheduled on one
simulator instance, so a whole distributed execution is a single
deterministic event loop.

Hot-path notes
--------------
The kernel is the inner loop of every sweep and chaos trial, so it keeps
two exact counters instead of scanning the heap:

* cancellation is lazy (a cancelled event stays queued and is skipped on
  pop), but the kernel counts cancelled-while-queued events so
  :attr:`Simulator.live_events` is O(1);
* when cancelled corpses dominate the heap -- the retransmit-timer
  pattern, where an ack cancels a far-deadline timer long before it
  would fire -- the heap is *compacted*: corpses are filtered out and
  the survivors re-heapified.  Compaction only removes events that can
  never fire, so event order (and therefore every run) is unchanged.

The heap holds ``(time, priority, seq, event)`` tuples, compared in C:
``seq`` is unique, so no comparison ever reaches the :class:`Event`.

Intra-run scale (10k+ processes, 100M+ events in one run) adds a third
discipline: the inner loop must not allocate per event.

* :meth:`Simulator.schedule_fast` is a handle-free scheduling path for
  the fire-and-forget majority (network deliveries, watchdog restarts):
  no :class:`EventHandle` is constructed, and the :class:`Event` object
  itself is drawn from a free-list pool of previously-fired events;
* after a pooled event fires, its ``fn``/``args``/``kwargs``/``label``
  slots are cleared before release so the pool never pins callbacks or
  payloads, and only handle-free events are ever pooled -- a recycled
  object can therefore never be reached by a stale handle, so a
  cancelled corpse cannot be resurrected by reuse.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, EventHandle

#: Compaction is considered only once the heap holds this many entries
#: (small heaps never pay the rebuild) ...
COMPACT_MIN_HEAP = 1024
#: ... and at least this fraction of them are cancelled corpses.  At 0.5
#: the rebuild cost amortises to O(1) per cancellation.
COMPACT_RATIO = 0.5
#: Free-list bound: fired schedule_fast events kept for reuse.  The pool
#: only needs to cover the live-event working set; anything beyond that
#: would pin memory for no throughput gain.
EVENT_POOL_MAX = 4096


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


def _released_fn(*_args: Any, **_kwargs: Any) -> None:
    """Placeholder callback installed on pooled events between uses.

    Firing it means the kernel recycled an event that something still
    referenced -- a pooling bug -- so fail loudly instead of silently
    running a stale callback."""
    raise SimulationError("a pooled (released) event was fired")


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.
    compact_min_heap:
        Heap size below which cancelled corpses are never compacted away
        (``None`` disables compaction entirely -- the seed's behaviour,
        kept for benchmarking the difference).
    compact_ratio:
        Fraction of the heap that must be cancelled before a compaction
        triggers.
    tiebreak_seed:
        Off (``None``) by default.  When set, events scheduled for the
        same instant at the same priority fire in a seeded-random order
        instead of FIFO.  Any such ordering is *legal* for a discrete-
        event simulation -- the model never promises FIFO across
        components -- so a run whose results change under a tie-break
        shuffle has a hidden schedule race.  The chaos harness exploits
        this: every trial also runs as one perturbed replica, judged by
        the same invariants as the canonical (FIFO) run.

    Notes
    -----
    * The clock only moves when :meth:`run` pops events.
    * Two events scheduled for the same instant fire in the order they
      were scheduled (FIFO), unless an explicit ``priority`` says
      otherwise or ``tiebreak_seed`` is set.  Either way a run is
      reproducible.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        compact_min_heap: Optional[int] = COMPACT_MIN_HEAP,
        compact_ratio: float = COMPACT_RATIO,
        tiebreak_seed: Optional[int] = None,
    ) -> None:
        self._now = float(start_time)
        #: ``(time, priority, seq, event)`` entries
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: None keeps the seed's exact FIFO tie order; a seeded RNG makes
        #: same-instant ordering a controlled perturbation (chaos replicas)
        self._tiebreak_rng = (
            random.Random(tiebreak_seed) if tiebreak_seed is not None else None
        )
        self._events_processed = 0
        self._running = False
        #: cancelled events still sitting in the heap (exact, maintained
        #: by EventHandle.cancel via _note_cancelled and by the pop sites)
        self._heap_cancelled = 0
        self._compact_min_heap = compact_min_heap
        self._compact_ratio = compact_ratio
        self._compactions = 0
        #: optional repro.sim.profile.SimProfiler; None = direct dispatch
        self.profiler: Optional[Any] = None
        #: free-list of fired schedule_fast events awaiting reuse.  Only
        #: handle-free (poolable) events ever land here; cancelled corpses
        #: always have a handle, so a recycled object can never be one.
        self._pool: List[Event] = []
        self._pool_reuses = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of queued events that will actually fire.

        Unlike :attr:`pending_events` this excludes lazily-cancelled
        corpses; it is maintained incrementally, never by scanning."""
        return len(self._heap) - self._heap_cancelled

    @property
    def compactions(self) -> int:
        """Times the heap was rebuilt to shed cancelled corpses."""
        return self._compactions

    @property
    def pool_size(self) -> int:
        """Fired schedule_fast events currently parked in the free list."""
        return len(self._pool)

    @property
    def pool_reuses(self) -> int:
        """schedule_fast calls served by recycling a pooled event."""
        return self._pool_reuses

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``fn(*args, **kwargs)`` to fire ``delay`` seconds from now.

        Returns a cancellable :class:`EventHandle`.  ``delay`` must be
        non-negative; a zero delay fires after all events already queued
        for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self._push(self._now + delay, fn, args, kwargs, priority, label)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``fn`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock is already at t={self._now!r}"
            )
        return self._push(time, fn, args, kwargs, priority, label)

    def _push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Optional[dict],
        priority: int,
        label: str,
    ) -> EventHandle:
        # FIFO by default; under a tie-break shuffle the jitter occupies
        # the high bits so it dominates same-instant ordering, while the
        # monotonic counter in the low 40 bits keeps every seq unique
        # (and the whole run deterministic for a given tiebreak_seed).
        seq = self._seq
        if self._tiebreak_rng is not None:
            seq = (self._tiebreak_rng.getrandbits(20) << 40) | seq
        event = Event(time, fn, args, kwargs, label)
        event.in_heap = True
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, seq, event))
        if self.profiler is not None:
            self.profiler.note_heap_depth(len(self._heap) - self._heap_cancelled)
        return EventHandle(event, self)

    def schedule_fast(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> None:
        """Schedule a fire-and-forget ``fn(*args)`` -- no handle, no kwargs.

        The allocation-free twin of :meth:`schedule` for callers that
        never cancel (network deliveries, watchdog restarts): no
        :class:`EventHandle` is built, and the :class:`Event` itself is
        recycled from the free-list pool when one is available.  Ordering
        is identical to :meth:`schedule` -- both paths share the same
        sequence counter and tie-break jitter, so mixing them leaves
        every run byte-identical.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        self._push_fast(self._now + delay, fn, args, priority, label)

    def schedule_fast_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> None:
        """Absolute-time twin of :meth:`schedule_fast`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock is already at t={self._now!r}"
            )
        self._push_fast(time, fn, args, priority, label)

    def _push_fast(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        priority: int,
        label: str,
    ) -> None:
        seq = self._seq
        if self._tiebreak_rng is not None:
            seq = (self._tiebreak_rng.getrandbits(20) << 40) | seq
        pool = self._pool
        if pool:
            event = pool.pop()
            self._pool_reuses += 1
            event.time = time
            event.fn = fn
            event.args = args
            event.label = label
            # kwargs/cancelled/poolable were reset by _release
        else:
            event = Event(time, fn, args, None, label)
            event.poolable = True
        event.in_heap = True
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, seq, event))
        if self.profiler is not None:
            self.profiler.note_heap_depth(len(self._heap) - self._heap_cancelled)

    def _release(self, event: Event) -> None:
        """Return a fired schedule_fast event to the free list.

        Slots are cleared first so the pool never pins the callback or
        its payload; ``fn`` becomes a tripwire that raises if a pooling
        bug ever fires a released event."""
        event.fn = _released_fn
        event.args = ()
        event.kwargs = None
        event.label = ""
        event.cancelled = False
        if len(self._pool) < EVENT_POOL_MAX:
            self._pool.append(event)

    # ------------------------------------------------------------------
    # cancellation bookkeeping / compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An in-heap event was just cancelled (called by EventHandle)."""
        self._heap_cancelled += 1
        threshold = self._compact_min_heap
        if (
            threshold is not None
            and len(self._heap) >= threshold
            and self._heap_cancelled >= len(self._heap) * self._compact_ratio
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled corpses and re-heapify the survivors.

        Entries are totally ordered by ``(time, priority, seq)``, so the
        rebuilt heap pops in exactly the order the old one would have --
        compaction is invisible to the simulation."""
        survivors = [entry for entry in self._heap if not entry[3].cancelled]
        self._heap = survivors
        heapq.heapify(survivors)
        self._heap_cancelled = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this virtual time.  Events at
            exactly ``until`` still fire.  The clock is advanced to
            ``until`` when the horizon is reached with events left over.
        max_events:
            Safety valve; stop after firing this many events.

        Returns the virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        heap = self._heap
        profiler = self.profiler  # hoisted: one branch per event when off
        try:
            while heap:
                if max_events is not None and fired >= max_events:
                    break
                time, _, _, event = heap[0]
                if event.cancelled:
                    heapq.heappop(heap)
                    event.in_heap = False
                    self._heap_cancelled -= 1
                    continue
                if until is not None and time > until:
                    self._now = until
                    break
                heapq.heappop(heap)
                event.in_heap = False
                self._now = time
                self._events_processed += 1
                fired += 1
                if profiler is None:
                    event.fire()
                else:
                    profiler.fire(event)
                if event.poolable:
                    self._release(event)
                heap = self._heap  # compaction may have swapped the list
            else:
                if until is not None and self._now < until:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={len(self._heap)}, "
            f"live={self.live_events}, processed={self._events_processed})"
        )
