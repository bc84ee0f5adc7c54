"""Structured execution traces.

Every interesting action in a run -- a send, a delivery, a crash, a
recovery phase transition, a stable-storage write -- is appended to a
:class:`TraceRecorder` as a :class:`TraceEvent`.  The experiment harness
derives its measurements (blocked intervals, recovery durations, message
counts) from the trace rather than from ad-hoc counters, so every reported
number can be audited against the raw event stream.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple, Union

from repro.sim.spans import SpanTracker


class TraceEvent:
    """One timestamped record in the execution trace.

    A plain slotted record: a run that keeps its trace builds one per
    record, so construction is five attribute stores and an instance
    carries no ``__dict__``.  Treat it as immutable -- observers and the
    kept trace share the one object.
    """

    __slots__ = ("time", "category", "node", "action", "details")

    def __init__(
        self,
        time: float,
        category: str,
        node: Optional[int],
        action: str,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.category = category
        self.node = node
        self.action = action
        self.details = {} if details is None else details

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.node == other.node
            and self.action == other.action
            and self.details == other.details
        )

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, category={self.category!r}, "
            f"node={self.node!r}, action={self.action!r}, details={self.details!r})"
        )

    def matches(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        action: Optional[str] = None,
    ) -> bool:
        """Whether this event matches every given (non-``None``) filter."""
        if category is not None and self.category != category:
            return False
        if node is not None and self.node != node:
            return False
        if action is not None and self.action != action:
            return False
        return True


class BoundEmitter:
    """A pre-bound trace emitter for one ``(category, action)`` pair.

    Hot paths (the network's per-message ``send``/``deliver`` traces, the
    protocols' ``app.send``/``app.deliver``) record thousands of events
    with the same category, action and detail *names*.  The emitter
    declares those names once, when it is bound, and call sites pass the
    values positionally: ``emit(time, node, *values)``.  The counters-only
    path (no :class:`TraceEvent` wanted by anybody) then allocates
    nothing -- no key string, no kwargs dict -- and an event, when one is
    wanted, gets ``dict(zip(fields, values))``: the same keys in the same
    order ``trace.record(..., **details)`` would have produced.
    Obtained from :meth:`TraceRecorder.emitter`.
    """

    __slots__ = ("_trace", "category", "action", "fields", "_key")

    def __init__(
        self,
        trace: "TraceRecorder",
        category: str,
        action: str,
        fields: Tuple[str, ...] = (),
    ) -> None:
        self._trace = trace
        self.category = category
        self.action = action
        self.fields = tuple(fields)
        self._key = category + "." + action

    def __call__(
        self, time: float, node: Optional[int], *values: Any
    ) -> Optional[TraceEvent]:
        """Equivalent to ``trace.record(time, category, node, action,
        **dict(zip(fields, values)))``."""
        trace = self._trace
        counters = trace.counters
        key = self._key
        counters[key] = counters.get(key, 0) + 1
        if trace.keep_events or trace._subscribers or key in trace._keyed:
            fields = self.fields
            if len(values) != len(fields):
                raise ValueError(
                    f"{key} declares {fields}, got {len(values)} values")
            return trace._publish(
                TraceEvent(time, self.category, node, self.action,
                           dict(zip(fields, values))),
                key,
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundEmitter({self._key}{self.fields})"


class TraceSpillLog:
    """The streaming backend for ``TraceRecorder.events``.

    Keeps the newest ``window`` events in a deque and spills older ones
    to a JSONL file, so a ``keep_trace_events=True`` run holds O(window)
    trace memory at any horizon.  The spill file uses the exact line
    format of :func:`repro.analysis.trace_io.dump_trace` (one
    ``{"time", "category", "node", "action", "details"}`` object per
    line), so ``repro trace`` and :func:`load_trace` read it directly.

    The class quacks like the plain event list it replaces: ``append``,
    iteration, ``len``/truthiness, ``reversed`` and ``clear`` all work,
    with iteration transparently replaying the spilled prefix from disk
    before the in-memory window.  One observable difference is inherent
    to the JSON round trip: tuple values inside ``details`` come back as
    lists (exactly as they do from ``dump_trace``/``load_trace``).
    """

    __slots__ = ("path", "window", "_window", "_file", "_spilled")

    def __init__(self, path: str, window: int = 10_000) -> None:
        self.path = path
        self.window = max(1, int(window))
        self._window: Deque[TraceEvent] = deque()
        self._file = open(path, "w", encoding="utf-8")
        self._spilled = 0

    # -- write side ----------------------------------------------------
    def append(self, event: TraceEvent) -> None:
        window = self._window
        window.append(event)
        if len(window) > self.window:
            self._spill_one(window.popleft())

    def _spill_one(self, event: TraceEvent) -> None:
        # local json encoding (rather than analysis.trace_io) to keep
        # sim free of an analysis-layer import; the shape must match
        # trace_io.event_to_dict exactly.
        record = {
            "time": event.time,
            "category": event.category,
            "node": event.node,
            "action": event.action,
            "details": event.details,
        }
        self._file.write(json.dumps(record, default=str))
        self._file.write("\n")
        self._spilled += 1

    def finalize(self) -> None:
        """Spill the in-memory window so the file is the complete trace.

        Called at run end; afterwards iteration reads everything from
        disk and the file can be shipped as-is (``repro trace`` /
        ``load_trace`` compatible).  Appending remains legal.
        """
        window = self._window
        while window:
            self._spill_one(window.popleft())
        self._file.flush()

    def close(self) -> None:
        """Finalize and release the file handle."""
        self.finalize()
        if not self._file.closed:
            self._file.close()

    def clear(self) -> None:
        """Drop all events: truncate the spill file, empty the window."""
        self._window.clear()
        self._spilled = 0
        if self._file.closed:
            self._file = open(self.path, "w", encoding="utf-8")
        else:
            self._file.seek(0)
            self._file.truncate()

    # -- read side -----------------------------------------------------
    def _iter_spilled(self) -> Iterator[TraceEvent]:
        if self._spilled == 0:
            return
        if not self._file.closed:
            self._file.flush()
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                d = json.loads(line)
                yield TraceEvent(
                    time=d["time"],
                    category=d["category"],
                    node=d["node"],
                    action=d["action"],
                    details=d.get("details", {}),
                )

    def __iter__(self) -> Iterator[TraceEvent]:
        yield from self._iter_spilled()
        yield from list(self._window)

    def __reversed__(self) -> Iterator[TraceEvent]:
        yield from reversed(list(self._window))
        if self._spilled:
            # the spilled prefix is replayed into memory only for
            # reversed scans (cold path: TraceRecorder.last on a query
            # that misses the whole window)
            yield from reversed(list(self._iter_spilled()))

    def __len__(self) -> int:
        return self._spilled + len(self._window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceSpillLog(path={self.path!r}, spilled={self._spilled}, "
            f"window={len(self._window)}/{self.window})"
        )


class TraceRecorder:
    """Append-only trace with counters and simple query support.

    Parameters
    ----------
    keep_events:
        If ``False`` only the counters are maintained; useful for large
        parameter sweeps where the full event list would dominate memory.
        Events are then not even constructed unless a subscriber wants
        them: one attached to the whole recorder sees every event, one
        attached under a ``category.action`` key only that key's
        (subscribers may come and go mid-run, so the check is made per
        call).
    spill_path:
        When set (and ``keep_events`` is on), events stream to this
        JSONL file through a :class:`TraceSpillLog` instead of
        accumulating in an unbounded list: only the newest
        ``spill_window`` events stay in memory, and every query API
        (:meth:`select`, :meth:`first`, :meth:`last`, iteration, span
        reconstruction, ``repro trace``) reads transparently through the
        spill file.
    spill_window:
        In-memory window size for the spill log.
    """

    def __init__(
        self,
        keep_events: bool = True,
        spill_path: Optional[str] = None,
        spill_window: int = 10_000,
    ) -> None:
        self.keep_events = keep_events
        self.events: Union[List[TraceEvent], TraceSpillLog]
        if spill_path is not None and keep_events:
            self.events = TraceSpillLog(spill_path, spill_window)
        else:
            self.events = []
        self.counters: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        #: ``category.action`` -> subscribers that want only that key
        self._keyed: Dict[str, List[Callable[[TraceEvent], None]]] = {}
        #: causal-span layer (disabled until ``spans.enable()``)
        self.spans = SpanTracker(self)

    @property
    def spill(self) -> Optional[TraceSpillLog]:
        """The spill backend, or ``None`` when events live in a list."""
        events = self.events
        return events if isinstance(events, TraceSpillLog) else None

    def finalize(self) -> None:
        """Flush any spill backend so its file holds the full trace.

        No-op for the default in-memory list backend."""
        spill = self.spill
        if spill is not None:
            spill.finalize()

    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        category: str,
        node: Optional[int],
        action: str,
        **details: Any,
    ) -> Optional[TraceEvent]:
        """Bump the ``category.action`` counter and append one event.

        Returns ``None`` on the counters-only fast path (``keep_events``
        off and nobody subscribed); the counter is bumped either way, so
        the audit totals are identical whichever path runs.
        """
        key = f"{category}.{action}"
        self.counters[key] = self.counters.get(key, 0) + 1
        if self.keep_events or self._subscribers or key in self._keyed:
            return self._publish(TraceEvent(time, category, node, action, details), key)
        return None

    def _publish(self, event: TraceEvent, key: str) -> TraceEvent:
        """Hand one wanted event to the event list and the subscribers:
        the whole-recorder ones, then those under the event's own
        ``category.action``.  Both lists are the ones in place before any
        subscriber has run -- ``subscribe``/``unsubscribe`` replace a list
        and never mutate it, so a subscriber may do either."""
        keyed = self._keyed.get(key)
        if self.keep_events:
            self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        if keyed is not None:
            for subscriber in keyed:
                subscriber(event)
        return event

    def emitter(
        self, category: str, action: str, fields: Tuple[str, ...] = ()
    ) -> BoundEmitter:
        """A pre-bound fast-path recorder for one ``category.action``
        whose details are named ``fields``; call it as
        ``emit(time, node, *values)``."""
        return BoundEmitter(self, category, action, fields)

    def subscribe(
        self, callback: Callable[[TraceEvent], None], key: Optional[str] = None
    ) -> None:
        """Invoke ``callback`` on every subsequent event, or with ``key``
        (``"category.action"``) only on that key's events.

        The observers (sanitizer, the ledger's span tracker) and the
        failure injector subscribe per key, so a record nobody listens
        for is not handed to anybody and, with ``keep_events`` off, not
        even built.  Whole-recorder subscribers run first, then the keyed
        ones in subscription order: ``System`` attaches its observers
        when it is built and arms the injector when it starts, so an
        observer has seen an event before a plan reacts to it.
        """
        if key is None:
            self._subscribers = self._subscribers + [callback]
        else:
            self._keyed[key] = self._keyed.get(key, []) + [callback]

    def unsubscribe(
        self, callback: Callable[[TraceEvent], None], key: Optional[str] = None
    ) -> None:
        """Remove a subscription added with :meth:`subscribe` (same ``key``).

        Safe from inside a subscriber: the event being published still
        reaches everyone who was subscribed when it was recorded."""
        remaining = list(self._subscribers if key is None else self._keyed[key])
        remaining.remove(callback)
        if key is None:
            self._subscribers = remaining
        elif remaining:
            self._keyed[key] = remaining
        else:
            del self._keyed[key]

    # ------------------------------------------------------------------
    def count(self, category: str, action: Optional[str] = None) -> int:
        """Total events matching ``category`` (and ``action`` if given)."""
        if action is not None:
            return self.counters.get(f"{category}.{action}", 0)
        prefix = category + "."
        return sum(v for k, v in self.counters.items() if k.startswith(prefix))

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        action: Optional[str] = None,
    ) -> List[TraceEvent]:
        """All retained events matching the filters, in time order."""
        return [e for e in self.events if e.matches(category, node, action)]

    def iter_select(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        action: Optional[str] = None,
    ) -> Iterator[TraceEvent]:
        """Lazy variant of :meth:`select`."""
        return (e for e in self.events if e.matches(category, node, action))

    def first(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        action: Optional[str] = None,
    ) -> Optional[TraceEvent]:
        """Earliest matching event, or ``None``."""
        for event in self.events:
            if event.matches(category, node, action):
                return event
        return None

    def last(
        self,
        category: Optional[str] = None,
        node: Optional[int] = None,
        action: Optional[str] = None,
    ) -> Optional[TraceEvent]:
        """Latest matching event, or ``None``."""
        for event in reversed(self.events):
            if event.matches(category, node, action):
                return event
        return None

    def clear(self) -> None:
        """Drop all events and counters."""
        self.events.clear()
        self.counters.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecorder(events={len(self.events)}, counters={len(self.counters)})"
