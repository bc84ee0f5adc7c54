"""Structured execution traces.

Every interesting action in a run -- a send, a delivery, a crash, a
recovery phase transition, a stable-storage write -- is recorded by a
:class:`TraceRecorder`.  The experiment harness derives its measurements
(blocked intervals, recovery durations, message counts) from the trace
rather than from ad-hoc counters, so every reported number can be audited
against the raw event stream.

A kept record is not an object: :class:`TraceColumns` keeps one flat row
of ``time, node, *values`` per stream (one ``(category, action, fields)``
triple) and the stream of each record in record order, and builds a
:class:`TraceEvent` when the trace is read.  Subscribers are handed
events as they happen; only a record somebody subscribed to is built
while the run goes on.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple, Union, overload

from repro.sim.spans import SpanTracker

#: a stream: the ``(category, action, fields)`` its records share
Stream = Tuple[str, str, Tuple[str, ...]]


class TraceEvent:
    """One timestamped record in the execution trace.

    A plain slotted record that keeps its details packed, in the form
    its emitter holds them: ``fields``, the detail names (its stream's
    tuple, shared by all of the stream's events), and ``values``, the
    values in the same order.  It is what a subscriber is handed and
    what reading the kept trace yields; the kept trace itself holds no
    events (:class:`TraceColumns`), so two reads of one record build two
    equal events.  A ``details`` mapping given to the constructor (a
    JSONL record read back) is packed into the same two tuples, and
    :attr:`details` builds the dict on read.  Treat it as immutable --
    all of a record's subscribers share the one object.
    """

    __slots__ = ("time", "category", "node", "action", "fields", "values")

    def __init__(
        self,
        time: float,
        category: str,
        node: Optional[int],
        action: str,
        details: Optional[Dict[str, Any]] = None,
        fields: Tuple[str, ...] = (),
        values: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.category = category
        self.node = node
        self.action = action
        if details:
            fields = tuple(details)
            values = tuple(details.values())
        self.fields = fields
        self.values = values

    @property
    def details(self) -> Dict[str, Any]:
        """The event's details as ``dict(zip(fields, values))``.

        A fresh copy on every read: writing to it leaves the event
        unchanged, and a handler that looks at several keys reads it
        once and keeps the dict."""
        return dict(zip(self.fields, self.values))

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
    path (nothing kept, nobody subscribed) allocates nothing -- no key
    string, no kwargs dict.  A kept record goes to the trace's backend
    under the emitter's stream, ``(category, action, fields)``: the
    columnar store appends ``time``, ``node`` and the values to the
    stream's row, and no :class:`TraceEvent` is built.  One is built
    only for a subscriber; it keeps the emitter's ``fields`` tuple and
    the call's ``values`` tuple as they are, so its ``details`` are the
    same keys in the same order ``trace.record(..., **details)`` would
    have produced.  Obtained from :meth:`TraceRecorder.emitter`.
    """

    __slots__ = ("_trace", "category", "action", "fields", "_key", "_stream")

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
        self._stream: Stream = (category, action, self.fields)

    def __call__(
        self, time: float, node: Optional[int], *values: Any
    ) -> Optional[TraceEvent]:
        """Equivalent to ``trace.record(time, category, node, action,
        **dict(zip(fields, values)))``: returns the event a subscriber
        was handed, or ``None`` when nobody subscribed to this record."""
        trace = self._trace
        counters = trace.counters
        key = self._key
        counters[key] = counters.get(key, 0) + 1
        if trace.keep_events or trace._subscribers or key in trace._keyed:
            fields = self.fields
            if len(values) != len(fields):
                raise ValueError(
                    f"{key} declares {fields}, got {len(values)} values")
            if trace.keep_events:
                trace.events.keep(self._stream, time, node, values)
            if trace._subscribers or key in trace._keyed:
                return trace._publish(
                    TraceEvent(time, self.category, node, self.action,
                               None, fields, values),
                    key,
                )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundEmitter({self._key}{self.fields})"


class TraceColumns:
    """The in-memory backend for ``TraceRecorder.events``: columns, not
    events.

    Each stream -- one ``(category, action, fields)`` triple -- owns one
    flat row, ``[time, node, *values, time, node, *values, ...]``, and
    ``_order`` holds the stream id of every record in record order.  A
    kept record is a few slots in two lists and allocates no object of
    its own.  Reading builds the :class:`TraceEvent` s: iteration,
    ``len``/truthiness, ``reversed``, indexing and slicing, and equality
    with a list of events all work, so the store reads like a list of
    events.  Each read builds new events; a reader
    that looks twice takes ``list(events)`` once.
    """

    __slots__ = ("_streams", "_index", "_rows", "_order")

    def __init__(self) -> None:
        self._streams: List[Stream] = []
        self._index: Dict[Stream, int] = {}
        self._rows: List[List[Any]] = []
        self._order: List[int] = []

    # -- write side ----------------------------------------------------
    def keep(self, stream: Stream, time: float, node: Optional[int],
             values: Tuple[Any, ...]) -> None:
        """Keep one record of ``stream``, opening its row on first use;
        ``values`` must match the stream's fields in number (the caller
        checks)."""
        sid = self._index.get(stream)
        if sid is None:
            sid = self._index[stream] = len(self._streams)
            self._streams.append(stream)
            self._rows.append([])
        row = self._rows[sid]
        row.append(time)
        row.append(node)
        row += values
        self._order.append(sid)

    def clear(self) -> None:
        """Drop every record."""
        self._streams.clear()
        self._index.clear()
        self._rows.clear()
        self._order.clear()

    # -- read side -----------------------------------------------------
    def _event(self, sid: int, at: int) -> TraceEvent:
        """The event whose record starts at ``at`` in stream ``sid``'s row."""
        category, action, fields = self._streams[sid]
        row = self._rows[sid]
        return TraceEvent(row[at], category, row[at + 1], action, None,
                          fields, tuple(row[at + 2:at + 2 + len(fields)]))

    def __iter__(self) -> Iterator[TraceEvent]:
        cursor = [0] * len(self._rows)
        for sid in self._order:
            at = cursor[sid]
            cursor[sid] = at + 2 + len(self._streams[sid][2])
            yield self._event(sid, at)

    def __reversed__(self) -> Iterator[TraceEvent]:
        cursor = [len(row) for row in self._rows]
        for sid in reversed(self._order):
            at = cursor[sid] = cursor[sid] - 2 - len(self._streams[sid][2])
            yield self._event(sid, at)

    def __len__(self) -> int:
        return len(self._order)

    @overload
    def __getitem__(self, index: int) -> TraceEvent: ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceEvent]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceEvent, List[TraceEvent]]:
        """Builds every event up to the one asked for: a reader that
        indexes more than once takes ``list(events)`` first."""
        return list(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceColumns(records={len(self._order)}, streams={len(self._streams)})"


class TraceSpillLog:
    """The streaming backend for ``TraceRecorder.events``.

    Keeps the newest ``window`` events in a deque and spills older ones
    to a JSONL file, so a ``keep_trace_events=True`` run holds O(window)
    trace memory at any horizon.  The spill file uses the exact line
    format of :func:`repro.analysis.trace_io.dump_trace` (one
    ``{"time", "category", "node", "action", "details"}`` object per
    line), so ``repro trace`` and :func:`load_trace` read it directly.

    It takes records the way :class:`TraceColumns` does (:meth:`keep`),
    but builds each one's :class:`TraceEvent` for its window, since the
    window is spilled event by event.  Iteration, ``len``/truthiness,
    ``reversed`` and ``clear`` work as they do on the store, with
    iteration transparently replaying the spilled prefix from disk
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
    def keep(self, stream: Stream, time: float, node: Optional[int],
             values: Tuple[Any, ...]) -> None:
        """Keep one record of ``stream`` as an event in the window,
        spilling the oldest one when the window is full."""
        category, action, fields = stream
        window = self._window
        window.append(TraceEvent(time, category, node, action, None, fields, values))
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

    ``events`` is the kept trace: a :class:`TraceColumns` store, or a
    :class:`TraceSpillLog` when spilling.  Either way it reads as the
    sequence of :class:`TraceEvent` s in record order.  An event is
    built while the run goes on only for a subscriber: one attached to
    the whole recorder sees every event, one attached under a
    ``category.action`` key only that key's (subscribers may come and
    go mid-run, so the check is made per call).

    Parameters
    ----------
    keep_events:
        If ``False`` only the counters are maintained; useful for large
        parameter sweeps where the full trace would dominate memory.
    spill_path:
        When set (and ``keep_events`` is on), events stream to this
        JSONL file through a :class:`TraceSpillLog` instead of
        accumulating in memory: only the newest
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
        self.events: Union[TraceColumns, TraceSpillLog]
        if spill_path is not None and keep_events:
            self.events = TraceSpillLog(spill_path, spill_window)
        else:
            self.events = TraceColumns()
        self.counters: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        #: ``category.action`` -> subscribers that want only that key
        self._keyed: Dict[str, List[Callable[[TraceEvent], None]]] = {}
        #: causal-span layer (disabled until ``spans.enable()``)
        self.spans = SpanTracker(self)

    @property
    def spill(self) -> Optional[TraceSpillLog]:
        """The spill backend, or ``None`` when the trace is kept in memory."""
        events = self.events
        return events if isinstance(events, TraceSpillLog) else None

    def finalize(self) -> None:
        """Flush any spill backend so its file holds the full trace.

        No-op for the in-memory store."""
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
        """Bump the ``category.action`` counter, keep the record (in the
        stream ``(category, action, tuple(details))``) and hand it to
        its subscribers.

        Returns the event the subscribers were handed, or ``None`` when
        nobody subscribed (the record is kept without building one); the
        counter is bumped either way, so the audit totals are identical
        whichever path runs.
        """
        key = f"{category}.{action}"
        self.counters[key] = self.counters.get(key, 0) + 1
        if self.keep_events or self._subscribers or key in self._keyed:
            fields = tuple(details)
            values = tuple(details.values())
            if self.keep_events:
                self.events.keep((category, action, fields), time, node, values)
            if self._subscribers or key in self._keyed:
                return self._publish(
                    TraceEvent(time, category, node, action, None, fields, values), key)
        return None

    def _publish(self, event: TraceEvent, key: str) -> TraceEvent:
        """Hand one kept-or-not event to the subscribers: the
        whole-recorder ones, then those under the event's own
        ``category.action``.  Both lists are the ones in place before any
        subscriber has run -- ``subscribe``/``unsubscribe`` replace a list
        and never mutate it, so a subscriber may do either."""
        keyed = self._keyed.get(key)
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
