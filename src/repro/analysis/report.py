"""Plain-text report tables for the benchmark harness."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.metrics import RunResult
from repro.sim.spans import CriticalPath, Span, children_of


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.001 or abs(value) >= 100_000:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_run_summary(result: RunResult, crashed: Optional[List[int]] = None) -> str:
    """One-paragraph summary of a run, in the paper's vocabulary."""
    crashed = crashed or []
    lines = [f"run {result.config_name!r}: virtual time {result.end_time:.3f}s"]
    lines.append(
        f"  deliveries: {result.total_deliveries} across {len(result.deliveries)} processes"
    )
    durations = result.recovery_durations()
    if durations:
        pretty = ", ".join(f"{d:.3f}s" for d in durations)
        lines.append(f"  recovery durations: {pretty}")
    lines.append(
        f"  live-process blocked time: mean "
        f"{result.mean_blocked_time(exclude=crashed) * 1000:.1f} ms"
    )
    messages, volume = result.recovery_messages(), result.recovery_bytes()
    lines.append(f"  recovery control traffic: {messages} messages, {volume} bytes")
    stats = result.network
    if stats.dropped:
        by_cause = ", ".join(
            f"{cause}={count}" for cause, count in sorted(stats.drops_by_cause.items())
        )
        by_kind = ", ".join(
            f"{kind}={count}" for kind, count in sorted(stats.drops_by_kind.items())
        )
        lines.append(f"  drops: {stats.dropped} (by cause: {by_cause}; by kind: {by_kind})")
    if stats.retransmits or stats.messages.get("transport"):
        acks, ack_bytes = stats.messages.get("transport", 0), stats.bytes.get("transport", 0)
        lines.append(
            f"  reliability overhead: {stats.retransmits} retransmits "
            f"({stats.retransmit_bytes} bytes), {acks} acks ({ack_bytes} bytes)"
        )
    if stats.duplicates_injected:
        lines.append(f"  duplicates injected: {stats.duplicates_injected}")
    lines.append(f"  consistent: {result.consistent}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# observability formatting (metrics registry, span trees, critical path)
# ----------------------------------------------------------------------
def format_metrics(
    snapshot: Dict[str, Dict[str, Any]], subsystem: Optional[str] = None
) -> str:
    """Tabulate a :meth:`MetricsRegistry.snapshot` by subsystem."""
    rows = []
    for name in sorted(snapshot):
        if subsystem is not None and not name.startswith(subsystem + "."):
            continue
        data = snapshot[name]
        kind = data.get("type", "?")
        if kind == "counter":
            value = str(data["value"])
        elif kind == "gauge":
            value = f"{_fmt(data['value'])} (high {_fmt(data['high_water'])})"
        else:  # histogram
            value = (
                f"n={data['count']} p50={_fmt(data['p50'])} "
                f"p95={_fmt(data['p95'])} max={_fmt(data['max'])}"
            )
        rows.append([name, kind, value])
    if not rows:
        return "(no metrics)"
    return format_table(["metric", "type", "value"], rows)


def format_span_tree(spans: List[Span], node: Optional[int] = None) -> str:
    """Indented span forest: roots first, children nested beneath."""
    if node is not None:
        keep = {s.span_id for s in spans if s.node == node}
        spans = [s for s in spans if s.span_id in keep or s.parent in keep]
    if not spans:
        return "(no spans)"
    by_id = {s.span_id: s for s in spans}
    tree = children_of(spans)
    lines: List[str] = []

    def render(span: Span, depth: int) -> None:
        end = f"{span.end:.6f}" if span.end is not None else "open"
        extra = ""
        if span.attrs:
            keys = ", ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())
            )
            extra = f"  [{keys}]"
        lines.append(
            f"{'  ' * depth}#{span.span_id} {span.kind} "
            f"n{span.node} {span.start:.6f} -> {end} "
            f"({span.duration() * 1000:.2f} ms){extra}"
        )
        for child in tree.get(span.span_id, ()):
            render(child, depth + 1)

    roots = [
        s
        for s in spans
        if s.parent is None or s.parent not in by_id
    ]
    for root in sorted(roots, key=lambda s: (s.start, s.span_id)):
        render(root, 0)
    return "\n".join(lines)


def format_critical_path(path: CriticalPath) -> str:
    """Narrate one recovery episode's critical path, component-first."""
    churn = ""
    if path.handoffs:
        churn = f", {path.handoffs} handoff(s)"
    lines = [
        f"node {path.node}: recovery {path.start:.6f} -> {path.end:.6f} "
        f"({path.total:.3f} s total, {path.gather_rounds} gather round(s)"
        f"{churn})"
    ]
    components = path.components()
    total = path.total or 1.0
    for component in sorted(components, key=lambda c: -components[c]):
        duration = components[component]
        lines.append(
            f"  {component:<10} {duration:>9.4f} s  "
            f"({100.0 * duration / total:5.1f} %)"
        )
    lines.append("  segments:")
    for segment in path.segments:
        lines.append(
            f"    {segment.start:.6f} -> {segment.end:.6f} "
            f"{segment.kind:<22} -> {segment.component} "
            f"({segment.duration * 1000:.2f} ms)"
        )
    lines.append(
        f"  bounded by: {path.dominant()}"
    )
    return "\n".join(lines)
