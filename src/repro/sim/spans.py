"""Causal spans layered on the execution trace.

A :class:`Span` is an interval of virtual time attributed to one node
and one *kind* of activity -- a checkpoint write, a recovery phase, a
gather round, a retransmission epoch, a block interval.  Spans form a
tree through ``parent`` (a gather round is a child of its recovery
episode) and a DAG through ``links`` (a restarted gather links to the
round it superseded), which is what lets the critical-path extractor
answer the paper's central question: *what actually bounded recovery
time* -- stable-storage latency, control messages, or blocking?

Spans are not a parallel data structure: they are encoded as ordinary
``category="span"`` events in the :class:`~repro.sim.trace.TraceRecorder`
(``begin``/``end`` pairs keyed by a run-unique span id).  That keeps the
JSONL trace self-contained -- ``repro trace`` can rebuild the span tree
from an archived trace file -- and guarantees that recording spans can
never perturb simulated time: emitting a trace event schedules nothing
and draws no randomness.

Span recording is **off by default** (``SystemConfig.spans=True`` or
``TraceRecorder.spans.enable()`` turns it on); when disabled every
tracker call is a cheap no-op returning ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports us)
    from repro.sim.trace import TraceEvent, TraceRecorder


@dataclass
class Span:
    """One reconstructed interval of attributed activity."""

    span_id: int
    kind: str
    node: Optional[int]
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    links: Tuple[int, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    def duration(self, horizon: Optional[float] = None) -> float:
        """Span length; open spans are measured to ``horizon`` (or start)."""
        end = self.end if self.end is not None else (horizon or self.start)
        return max(0.0, end - self.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return f"Span(#{self.span_id} {self.kind} n{self.node} {self.start:.6f}->{end})"


class SpanTracker:
    """Records span begin/end pairs into a :class:`TraceRecorder`.

    Owned by the recorder itself (``trace.spans``) so every subsystem
    that already holds a trace reference can emit spans without new
    wiring.  Ids are assigned in emission order, which keeps them
    deterministic for a given (config, seed).
    """

    __slots__ = ("trace", "enabled", "_next_id", "_open")

    def __init__(self, trace: "TraceRecorder") -> None:
        self.trace = trace
        self.enabled = False
        self._next_id = 0
        #: span id -> (kind, node) for spans begun but not yet ended
        self._open: Dict[int, Tuple[str, Optional[int]]] = {}

    def enable(self) -> None:
        self.enabled = True

    # ------------------------------------------------------------------
    def begin(
        self,
        kind: str,
        node: Optional[int],
        time: float,
        parent: Optional[int] = None,
        links: Iterable[int] = (),
        **attrs: Any,
    ) -> Optional[int]:
        """Open a span; returns its id, or ``None`` when disabled."""
        if not self.enabled:
            return None
        span_id = self._next_id
        self._next_id += 1
        self._open[span_id] = (kind, node)
        details: Dict[str, Any] = {"span": span_id, "kind": kind}
        if parent is not None:
            details["parent"] = parent
        link_list = [l for l in links if l is not None]
        if link_list:
            details["links"] = link_list
        details.update(attrs)
        self.trace.record(time, "span", node, "begin", **details)
        return span_id

    def end(self, span_id: Optional[int], time: float, **attrs: Any) -> None:
        """Close a span opened with :meth:`begin`.

        ``None`` and ids that were never opened (or already closed) are
        no-ops, so callers can close unconditionally on every exit path.
        """
        if span_id is None or not self.enabled or span_id not in self._open:
            return
        kind, node = self._open.pop(span_id)
        self.trace.record(time, "span", node, "end", span=span_id, kind=kind, **attrs)

    def open_count(self) -> int:
        """Spans begun but not yet ended (tests/assertions)."""
        return len(self._open)


class SpanChainTracker:
    """Online span bookkeeping for trace subscribers.

    Feed it the ``span.begin`` / ``span.end`` events a subscriber
    receives (:meth:`on_event` ignores any other); the tracker keeps,
    per node, the stack of currently-open spans.
    :meth:`chain` then answers "what was node ``x`` doing?" as the parent
    chain of its innermost open span -- the causal attribution the
    sanitizer attaches to a violation, and far cheaper than rebuilding
    the full span forest with :func:`spans_from_trace` mid-run.  A span's
    parent is fixed when it begins, so the chain is a function of
    :meth:`innermost` alone: the ledger keys its flame stacks on that.
    """

    def __init__(self) -> None:
        #: span id -> (kind, node, parent) for every span ever begun
        self._info: Dict[int, Tuple[str, Optional[int], Optional[int]]] = {}
        #: open span ids per node, in begin order (innermost last)
        self._open_by_node: Dict[Optional[int], List[int]] = {}

    def on_event(self, event: "TraceEvent") -> None:
        """Consume one trace event (non-span events are ignored)."""
        if event.category != "span":
            return
        details = event.details
        span_id = details.get("span")
        if span_id is None:
            return
        if event.action == "begin":
            self._info[span_id] = (
                details.get("kind", "?"),
                event.node,
                details.get("parent"),
            )
            self._open_by_node.setdefault(event.node, []).append(span_id)
        elif event.action == "end":
            info = self._info.get(span_id)
            if info is not None:
                stack = self._open_by_node.get(info[1])
                if stack is not None and span_id in stack:
                    stack.remove(span_id)

    def innermost(self, node: Optional[int]) -> Optional[int]:
        """Id of ``node``'s innermost open span, or ``None``."""
        stack = self._open_by_node.get(node)
        return stack[-1] if stack else None

    def chain(self, node: Optional[int]) -> List[Dict[str, Any]]:
        """Parent chain of ``node``'s innermost open span, innermost first.

        Each element is ``{"span": id, "kind": kind, "node": node}``;
        empty when the node has no open span (e.g. spans are disabled).
        """
        chain: List[Dict[str, Any]] = []
        seen = set()
        cursor = self.innermost(node)
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            info = self._info.get(cursor)
            if info is None:
                break
            kind, span_node, parent = info
            chain.append({"span": cursor, "kind": kind, "node": span_node})
            cursor = parent
        return chain


# ----------------------------------------------------------------------
# reconstruction from a trace
# ----------------------------------------------------------------------
def spans_from_trace(
    source: Union["TraceRecorder", Iterable["TraceEvent"]],
) -> List[Span]:
    """Rebuild the span list from trace events (live or loaded JSONL).

    Spans whose ``end`` event is missing (the owner crashed mid-span, or
    the run was cut off) come back with ``end=None``.
    """
    events = getattr(source, "events", source)
    spans: Dict[int, Span] = {}
    for event in events:
        if event.category != "span":
            continue
        details = event.details
        span_id = details.get("span")
        if span_id is None:
            continue
        if event.action == "begin":
            attrs = {
                k: v
                for k, v in details.items()
                if k not in ("span", "kind", "parent", "links")
            }
            spans[span_id] = Span(
                span_id=span_id,
                kind=details.get("kind", "?"),
                node=event.node,
                start=event.time,
                parent=details.get("parent"),
                links=tuple(details.get("links", ())),
                attrs=attrs,
            )
        elif event.action == "end":
            span = spans.get(span_id)
            if span is None:
                # end without begin (truncated trace): synthesize
                span = Span(
                    span_id=span_id,
                    kind=details.get("kind", "?"),
                    node=event.node,
                    start=event.time,
                )
                spans[span_id] = span
            span.end = event.time
            for key, value in details.items():
                if key not in ("span", "kind"):
                    span.attrs.setdefault(key, value)
    return sorted(spans.values(), key=lambda s: (s.start, s.span_id))


def children_of(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    """Parent id -> children, each list in (start, id) order."""
    tree: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        tree.setdefault(span.parent, []).append(span)
    for siblings in tree.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return tree


# ----------------------------------------------------------------------
# recovery critical path
# ----------------------------------------------------------------------
#: Episode phase kind -> cost component it is attributed to.
#:
#: * ``detection``  -- the watchdog timeout: the process sits dead and
#:   undetected (the paper's "several seconds of timeouts and retrials");
#: * ``storage``    -- stable-storage latency (state restore, and any
#:   storage operation overlapping the replay);
#: * ``control``    -- recovery control-message rounds (ordinal
#:   acquisition, incarnation gather, depinfo gather, distribution);
#: * ``replay``     -- local recomputation from the gathered depinfo.
PHASE_COMPONENT = {
    "recovery.detect": "detection",
    "recovery.restore": "storage",
    "recovery.gather": "control",
    "recovery.replay": "replay",
}

#: Phase whose time is refined against overlapping same-node storage
#: spans: replay time actually spent waiting on the device is storage
#: cost, not recomputation.
#:
#: Storage spans are matched by their ``storage.`` kind prefix, so every
#: device operation participates automatically: ``storage.write``,
#: ``storage.read``, ``storage.log_append``, ``storage.log_read``, and
#: ``storage.batch_flush`` (one group-commit batch hitting the device --
#: its span covers the whole coalesced operation, which is how batched
#: log time shows up on the recovery critical path).
_STORAGE_REFINED = {"recovery.replay": "replay"}


@dataclass
class PathSegment:
    """One attributed slice of a recovery episode."""

    start: float
    end: float
    kind: str
    component: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """What bounded one node's recovery, phase by phase."""

    node: int
    start: float
    end: float
    segments: List[PathSegment]
    gather_rounds: int = 0
    handoffs: int = 0  # rounds adopted from a dead leader (view change)
    resumed_rounds: int = 0  # rounds resumed rather than started fresh

    @property
    def total(self) -> float:
        """Crash-to-live duration (== the episode's ``total_duration``)."""
        return self.end - self.start

    def components(self) -> Dict[str, float]:
        """Total time per cost component; values sum to :attr:`total`."""
        totals: Dict[str, float] = {}
        for segment in self.segments:
            totals[segment.component] = (
                totals.get(segment.component, 0.0) + segment.duration
            )
        return totals

    def dominant(self) -> Optional[str]:
        """The component that bounded this recovery."""
        totals = self.components()
        if not totals:
            return None
        return max(sorted(totals), key=lambda k: totals[k])


def _merged_intervals(
    spans: Iterable[Span], lo: float, hi: float, horizon: float
) -> List[Tuple[float, float]]:
    """Clip spans to ``[lo, hi]`` and merge overlaps."""
    clipped = []
    for span in spans:
        end = span.end if span.end is not None else horizon
        start, stop = max(span.start, lo), min(end, hi)
        if stop > start:
            clipped.append((start, stop))
    clipped.sort()
    merged: List[Tuple[float, float]] = []
    for start, stop in clipped:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return merged


def recovery_critical_paths(
    source: Union["TraceRecorder", Iterable["TraceEvent"], Sequence[Span]],
    node: Optional[int] = None,
) -> List[CriticalPath]:
    """Extract the critical path of every completed recovery episode.

    Each episode's ``[crash, recovered]`` interval is partitioned into
    contiguous phase segments (so per-component times sum exactly to the
    episode duration), and the replay phase is refined by walking the
    same node's storage spans: replay wall-time the device was busy is
    attributed to ``storage``, the remainder to ``replay``.
    """
    if isinstance(source, (list, tuple)) and (not source or isinstance(source[0], Span)):
        spans: Sequence[Span] = source  # already extracted
    else:
        spans = spans_from_trace(source)
    if not spans:
        return []
    horizon = max(
        (s.end if s.end is not None else s.start) for s in spans
    )
    tree = children_of(spans)
    paths: List[CriticalPath] = []
    for episode in spans:
        if episode.kind != "recovery.episode" or not episode.closed:
            continue
        if node is not None and episode.node != node:
            continue
        children = [
            c for c in tree.get(episode.span_id, ()) if c.kind in PHASE_COMPONENT
        ]
        segments: List[PathSegment] = []
        cursor = episode.start
        for phase in children:
            if phase.start > cursor:
                # should not happen with contiguous instrumentation, but
                # never let a gap make the components under-count
                segments.append(PathSegment(cursor, phase.start, "gap", "other"))
                cursor = phase.start
            end = min(phase.end if phase.end is not None else episode.end, episode.end)
            if end <= cursor:
                continue
            component = PHASE_COMPONENT[phase.kind]
            if phase.kind in _STORAGE_REFINED:
                storage_spans = [
                    s
                    for s in spans
                    if s.node == episode.node and s.kind.startswith("storage.")
                ]
                busy = _merged_intervals(storage_spans, cursor, end, horizon)
                pos = cursor
                for lo, hi in busy:
                    if lo > pos:
                        segments.append(PathSegment(pos, lo, phase.kind, component))
                    segments.append(PathSegment(lo, hi, phase.kind, "storage"))
                    pos = hi
                if end > pos:
                    segments.append(PathSegment(pos, end, phase.kind, component))
            else:
                segments.append(PathSegment(cursor, end, phase.kind, component))
            cursor = end
        if cursor < episode.end:
            segments.append(PathSegment(cursor, episode.end, "gap", "other"))
        round_spans = [
            c
            for c in tree.get(episode.span_id, ())
            if c.kind == "recovery.gather_round"
        ]
        paths.append(
            CriticalPath(
                node=episode.node,
                start=episode.start,
                end=episode.end,
                segments=segments,
                gather_rounds=len(round_spans),
                handoffs=sum(
                    1 for s in round_spans if s.attrs.get("handoff")
                ),
                resumed_rounds=sum(
                    1 for s in round_spans if s.attrs.get("resumed")
                ),
            )
        )
    paths.sort(key=lambda p: (p.start, p.node))
    return paths
