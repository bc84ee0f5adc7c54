"""Trace export and import (JSON lines).

A run's trace is the audit record behind every reported number.  These
helpers serialize a :class:`~repro.sim.trace.TraceRecorder` to JSONL so
traces can be archived, diffed between runs, or analysed with external
tooling, and load them back for the in-library query and timeline tools.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional, Union

from repro.sim.trace import TraceEvent, TraceRecorder


def event_to_dict(event: TraceEvent) -> dict:
    """Plain-dict form of one trace event."""
    return {
        "time": event.time,
        "category": event.category,
        "node": event.node,
        "action": event.action,
        "details": event.details,
    }


def event_from_dict(data: dict, line: Optional[int] = None) -> TraceEvent:
    """Rebuild a trace event from its dict form.

    Validates the record instead of silently coercing: a missing field,
    a non-numeric ``time``, or a ``node`` that is neither an int nor
    ``null`` raises :class:`ValueError` -- naming the offending JSONL
    line when ``line`` is given.
    """

    def fail(reason: str) -> "ValueError":
        where = f"line {line}: " if line is not None else ""
        return ValueError(f"malformed trace record: {where}{reason}")

    if not isinstance(data, dict):
        raise fail(f"expected an object, got {type(data).__name__}")
    for field in ("time", "category", "node", "action"):
        if field not in data:
            raise fail(f"missing field {field!r}")
    time = data["time"]
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise fail(f"'time' must be a number, got {time!r}")
    category, action = data["category"], data["action"]
    if not isinstance(category, str) or not category:
        raise fail(f"'category' must be a non-empty string, got {category!r}")
    if not isinstance(action, str) or not action:
        raise fail(f"'action' must be a non-empty string, got {action!r}")
    node = data["node"]
    if node is not None and (isinstance(node, bool) or not isinstance(node, int)):
        raise fail(f"'node' must be an integer or null, got {node!r}")
    details = data.get("details", {})
    if not isinstance(details, dict):
        raise fail(f"'details' must be an object, got {details!r}")
    return TraceEvent(
        time=float(time),
        category=category,
        node=node,
        action=action,
        details=details,
    )


def dump_trace(trace: TraceRecorder, destination: Union[str, IO[str]]) -> int:
    """Write the trace as JSON lines; returns the event count.

    ``destination`` is a path or an open text file.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return dump_trace(trace, handle)
    count = 0
    for event in trace.events:
        destination.write(json.dumps(event_to_dict(event), default=str))
        destination.write("\n")
        count += 1
    return count


def load_trace(source: Union[str, IO[str], Iterable[str]]) -> TraceRecorder:
    """Read a JSONL trace back into a :class:`TraceRecorder`.

    Counters are rebuilt; subscribers obviously are not.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return load_trace(handle)
    trace = TraceRecorder()
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"malformed trace record: line {lineno}: invalid JSON ({exc.msg})"
            ) from exc
        event = event_from_dict(data, line=lineno)
        trace.record(
            event.time, event.category, event.node, event.action, **event.details
        )
    return trace


def diff_counters(a: TraceRecorder, b: TraceRecorder) -> dict:
    """Counter deltas between two traces: ``{key: b - a}`` for keys that
    differ.  Handy for comparing two runs of the same scenario."""
    keys = set(a.counters) | set(b.counters)
    return {
        key: b.counters.get(key, 0) - a.counters.get(key, 0)
        for key in sorted(keys)
        if a.counters.get(key, 0) != b.counters.get(key, 0)
    }
