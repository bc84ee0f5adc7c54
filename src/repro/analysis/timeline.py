"""ASCII timelines of a run.

Renders per-node lanes from the execution trace, so a recovery scenario
can be *seen*: when each process crashed, how long detection and restore
took, when the gather phases ran, and -- the paper's point -- which live
processes were stalled meanwhile.

::

    t=0.000                                                    t=8.100
    n0 |=============================================================|
    n3 |----X.........R~~~~g*=========================================|
    n5 |--------------X.........R~~~~*================================|

    legend: = live   # blocked   X crash   . down (undetected + detected)
            R restore begins   ~ restoring   g gathering   * recovered
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.trace import TraceRecorder

#: lane glyphs, in increasing precedence (later overwrites earlier)
LIVE = "="
BLOCKED = "#"
DOWN = "."
RESTORING = "~"
RECOVERING = "g"
CRASH = "X"
RESTORE_MARK = "R"
RECOVERED = "*"

#: the lane state a ``node.*`` action starts
_STATE_AFTER = {
    "crash": DOWN,
    "restart_begin": RESTORING,
    "restored": RECOVERING,
    "recovered": LIVE,
    "block": BLOCKED,
    "unblock": LIVE,
}
#: the point mark a ``node.*`` action leaves
_MARK = {"crash": CRASH, "restart_begin": RESTORE_MARK, "recovered": RECOVERED}

#: one ``node.*`` event as the lanes read it: ``(time, node, action)``
NodeEvent = Tuple[float, int, str]


class TimelineRenderer:
    """Builds per-node lanes from a :class:`TraceRecorder`."""

    def __init__(self, trace: TraceRecorder, width: int = 72) -> None:
        if width < 20:
            raise ValueError(f"width must be >= 20, got {width!r}")
        self.trace = trace
        self.width = width

    # ------------------------------------------------------------------
    def _node_events(self) -> Tuple[List[NodeEvent], float]:
        """``(time, node, action)`` of every ``node.*`` event with a node,
        and the last event's time: the one pass over the trace, since
        reading it builds its events."""
        node_events: List[NodeEvent] = []
        last = 0.0
        for event in self.trace.events:
            if event.time > last:
                last = event.time
            if event.category == "node" and event.node is not None:
                node_events.append((event.time, event.node, event.action))
        return node_events, last

    @staticmethod
    def _intervals(
        node_events: List[NodeEvent], end_time: float
    ) -> Dict[int, List[Tuple[float, float, str]]]:
        """Per node: (start, end, glyph) state intervals."""
        nodes = sorted({node for _, node, _ in node_events})
        lanes: Dict[int, List[Tuple[float, float, str]]] = {n: [] for n in nodes}
        state_since: Dict[int, Tuple[float, str]] = {n: (0.0, LIVE) for n in nodes}

        def close(node: int, at: float, new_glyph: str) -> None:
            since, glyph = state_since[node]
            if at > since:
                lanes[node].append((since, at, glyph))
            state_since[node] = (at, new_glyph)

        for t, node, action in node_events:
            glyph = _STATE_AFTER.get(action)
            if glyph is not None:
                close(node, t, glyph)
        for node in nodes:
            close(node, end_time, LIVE)
        return lanes

    @staticmethod
    def _marks(node_events: List[NodeEvent]) -> Dict[int, List[Tuple[float, str]]]:
        marks: Dict[int, List[Tuple[float, str]]] = {}
        for t, node, action in node_events:
            glyph = _MARK.get(action)
            if glyph is not None:
                marks.setdefault(node, []).append((t, glyph))
        return marks

    # ------------------------------------------------------------------
    def render(self, end_time: Optional[float] = None) -> str:
        """Render the timeline; ``end_time`` defaults to the last event."""
        if not self.trace.events:
            return "(empty trace)"
        node_events, last = self._node_events()
        if end_time is None:
            end_time = last
        if end_time <= 0:
            end_time = 1.0
        scale = (self.width - 1) / end_time

        def column(t: float) -> int:
            return min(self.width - 1, max(0, int(t * scale)))

        lanes = self._intervals(node_events, end_time)
        marks = self._marks(node_events)
        lines = [f"t=0.000{' ' * (self.width - 14)}t={end_time:.3f}"]
        for node in sorted(lanes):
            row = [LIVE] * self.width
            for start, end, glyph in lanes[node]:
                for col in range(column(start), column(end) + 1):
                    row[col] = glyph
            for t, glyph in marks.get(node, []):
                row[column(t)] = glyph
            lines.append(f"n{node:<2d} |{''.join(row)}|")
        lines.append("")
        lines.append(
            f"legend: {LIVE} live  {BLOCKED} blocked  {CRASH} crash  "
            f"{DOWN} down  {RESTORE_MARK}/{RESTORING} restoring  "
            f"{RECOVERING} recovering  {RECOVERED} recovered"
        )
        return "\n".join(lines)


def render_timeline(trace: TraceRecorder, width: int = 72) -> str:
    """One-call helper: render the whole run."""
    return TimelineRenderer(trace, width=width).render()
