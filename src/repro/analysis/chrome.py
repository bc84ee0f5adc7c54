"""Chrome trace-event export (Perfetto / ``chrome://tracing``).

Converts a run's trace into the Trace Event Format JSON that Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly:

* every closed span becomes a complete ("X") event on the owning node's
  track, open spans become begin ("B") events so truncation is visible;
* selected point events (crash, restart, recovered, deliveries if asked)
  become instant ("i") events;
* each node gets a named thread via "M" metadata records, so the
  timeline reads ``node 0 .. node n`` top to bottom;
* ``cost.sample`` events (recorded by :mod:`repro.obs.sampler` when a
  run samples its cost ledger) become counter ("C") tracks -- wire
  bytes per purpose plus storage/gc bytes per window -- so Perfetto
  draws the overhead-vs-time curves beside the span timeline.

Simulated seconds map to trace microseconds (the format's native unit),
so one second of virtual time reads as one second in the UI.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from repro.sim.spans import Span, spans_from_trace
from repro.sim.trace import TraceEvent, TraceRecorder

#: trace-event timestamps are microseconds
_US = 1_000_000.0

#: point events worth showing as instants, by ``category.action``
_INSTANT_EVENTS = {
    "node.crash": "crash",
    "node.restart_begin": "restart",
    "node.recovered": "recovered",
    "node.checkpoint": "checkpoint",
    "detector.suspect": "suspect",
}


def _track(node: Optional[int]) -> int:
    """Thread id for a node (None = system-wide events on tid 0)."""
    return 0 if node is None else node + 1


def chrome_trace_events(
    source: Union[TraceRecorder, Iterable[TraceEvent]],
    spans: Optional[List[Span]] = None,
    include_instants: bool = True,
) -> List[Dict[str, Any]]:
    """Build the trace-event list (the ``traceEvents`` array)."""
    events = list(getattr(source, "events", source))
    if spans is None:
        spans = spans_from_trace(events)
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro simulation"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "system"},
        },
    ]
    for node in sorted({s.node for s in spans if s.node is not None}
                       | {e.node for e in events if e.node is not None}):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": _track(node),
                "args": {"name": f"node {node}"},
            }
        )
    for span in spans:
        args = {"span_id": span.span_id}
        if span.parent is not None:
            args["parent"] = span.parent
        if span.links:
            args["links"] = list(span.links)
        args.update(span.attrs)
        base = {
            "name": span.kind,
            "cat": span.kind.split(".", 1)[0],
            "pid": 0,
            "tid": _track(span.node),
            "ts": span.start * _US,
            "args": args,
        }
        if span.closed:
            base["ph"] = "X"
            base["dur"] = (span.end - span.start) * _US
        else:
            base["ph"] = "B"  # left open: the span never ended
        out.append(base)
    if include_instants:
        for event in events:
            key = f"{event.category}.{event.action}"
            name = _INSTANT_EVENTS.get(key)
            if name is None:
                continue
            out.append(
                {
                    "name": name,
                    "cat": event.category,
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "pid": 0,
                    "tid": _track(event.node),
                    "ts": event.time * _US,
                    "args": event.details,
                }
            )
    out.extend(_counter_events(events))
    return out


def _counter_events(events: Iterable[TraceEvent]) -> List[Dict[str, Any]]:
    """Counter ("C") tracks from the sampler's ``cost.sample`` events.

    One ``wire cost`` counter stacks the per-purpose wire bytes of each
    window; ``storage cost`` carries the window's storage and reclaimed
    bytes.  A counter event is emitted at the window's *start* so the
    step plotted across the window shows the bytes that window carried.
    """
    out: List[Dict[str, Any]] = []
    purposes: List[str] = []
    for event in events:
        if event.category != "cost" or event.action != "sample":
            continue
        for purpose in event.details.get("wire", {}):
            if purpose not in purposes:
                purposes.append(purpose)
    for event in events:
        if event.category != "cost" or event.action != "sample":
            continue
        details = event.details
        start = event.time - details.get("window", 0.0)
        wire = details.get("wire", {})
        out.append(
            {
                "name": "wire cost (bytes/window)",
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "ts": start * _US,
                # every series in every event, so Perfetto keeps the
                # stacked areas aligned when a purpose is absent
                "args": {purpose: wire.get(purpose, 0) for purpose in purposes},
            }
        )
        out.append(
            {
                "name": "storage cost (bytes/window)",
                "ph": "C",
                "pid": 0,
                "tid": 0,
                "ts": start * _US,
                "args": {
                    "storage": details.get("storage_bytes", 0),
                    "gc-reclaimed": details.get("gc_bytes", 0),
                },
            }
        )
    return out


def dump_chrome_trace(
    source: Union[TraceRecorder, Iterable[TraceEvent]],
    destination: Union[str, IO[str]],
    include_instants: bool = True,
) -> int:
    """Write the Chrome trace JSON; returns the trace-event count.

    ``destination`` is a path or an open text file.  The output is the
    object form (``{"traceEvents": [...]}``), which both Perfetto and
    ``chrome://tracing`` accept.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return dump_chrome_trace(source, handle, include_instants)
    events = chrome_trace_events(source, include_instants=include_instants)
    json.dump(
        {"traceEvents": events, "displayTimeUnit": "ms"},
        destination,
        default=str,
    )
    destination.write("\n")
    return len(events)
