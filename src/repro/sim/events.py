"""Event objects used by the simulation kernel.

An :class:`Event` couples a firing time with a callback.  Events are
totally ordered by ``(time, priority, seq)``: ties on the virtual clock are
broken first by an explicit priority (lower fires first) and then by
insertion order, which keeps runs deterministic regardless of heap
internals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Event:
    """A scheduled callback in the simulation.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`;
    user code normally only sees the :class:`EventHandle` wrapper, which
    supports cancellation.

    ``kwargs`` is ``None`` on the hot path (no keyword arguments were
    passed to ``schedule``); :meth:`fire` then calls ``fn(*args)``
    directly without allocating or expanding a dict.

    ``poolable`` marks events created through the kernel's handle-free
    ``schedule_fast`` path: no :class:`EventHandle` exists for them, so
    after firing the kernel may clear their slots and recycle the object
    through its free-list pool.  Handle-backed events are never pooled
    (a recycled object would let a stale handle cancel an unrelated,
    later event).
    """

    __slots__ = (
        "time", "priority", "seq", "fn", "args", "kwargs",
        "cancelled", "label", "in_heap", "poolable",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[dict] = None,
        priority: int = 0,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs if kwargs else None
        self.cancelled = False
        self.label = label
        #: maintained by the kernel: True while sitting in the heap.  Lets
        #: cancellation know whether the live-event counter must move.
        self.in_heap = False
        #: True only for handle-free schedule_fast events (pool-eligible)
        self.poolable = False

    def fire(self) -> None:
        """Invoke the callback unless the event was cancelled."""
        if not self.cancelled:
            if self.kwargs is None:
                self.fn(*self.args)
            else:
                self.fn(*self.args, **self.kwargs)

    def __lt__(self, other: "Event") -> bool:
        # the kernel heap's total order: (time, priority, seq), compared
        # field by field -- the hottest code in the kernel (one call per
        # heap sift step), so no tuple is built per comparison
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.fn, "__name__", repr(self.fn))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"


class EventHandle:
    """Cancellable reference to a scheduled :class:`Event`.

    The kernel hands one of these back from every ``schedule`` call.
    Cancellation is lazy: the event stays in the heap but is skipped when
    popped, which is O(1) and keeps the heap consistent.  The handle
    reports the cancellation to the owning simulator so it can keep an
    exact live-event count and compact the heap when dead timers pile up
    (see :meth:`repro.sim.kernel.Simulator.live_events`).
    """

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: Optional["Simulator"] = None) -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        """Virtual time at which the event will (or would have) fired."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if self._sim is not None and event.in_heap:
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventHandle({self._event!r})"
