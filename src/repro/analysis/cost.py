"""Cost-ledger report formatting.

Renders the roll-up produced by :meth:`repro.obs.CostLedger.summary`
(``RunResult.extra["cost"]``) into the plain-text tables the CLI's
``repro report cost`` prints: per-purpose breakdowns with shares, the
per-link cost matrix, phase splits and an overhead-vs-time curve from
``extra["timeseries"]``.  Everything here is pure formatting over the
JSON-able summary dict, so it works identically on a live run's summary
and on a merged cross-trial ledger's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table

#: purposes whose share EXPERIMENTS.md's E6 tables report
SHARE_PURPOSES = ("piggyback-determinant", "determinant-log", "control-plane")


def overhead_shares(cost: Dict[str, Any]) -> Dict[str, float]:
    """Failure-free-relevant share (fraction of all wire bytes) of each
    tracked overhead purpose, plus the total ``overhead_share``."""
    total = cost["wire"]["total_bytes"] or 1
    by_purpose = cost["wire"]["by_purpose"]
    shares = {
        purpose: by_purpose.get(purpose, 0) / total for purpose in SHARE_PURPOSES
    }
    shares["overhead"] = cost.get("overhead_share", 0.0)
    return shares


def purpose_table(cost: Dict[str, Any], title: Optional[str] = None) -> str:
    """Wire and storage bytes per purpose, with percentage shares."""
    rows: List[Sequence[Any]] = []
    wire_total = cost["wire"]["total_bytes"] or 1
    for purpose, nbytes in cost["wire"]["by_purpose"].items():
        rows.append(("wire", purpose, nbytes, f"{100 * nbytes / wire_total:.1f}%"))
    storage_total = cost["storage"]["total_bytes"] or 1
    for purpose, nbytes in cost["storage"]["by_purpose"].items():
        rows.append(
            ("storage", purpose, nbytes, f"{100 * nbytes / storage_total:.1f}%")
        )
    if cost["gc"]["total_bytes"]:
        rows.append(("gc", "reclaimed", cost["gc"]["total_bytes"], "-"))
    return format_table(("domain", "purpose", "bytes", "share"), rows, title=title)


def phase_table(cost: Dict[str, Any], title: Optional[str] = None) -> str:
    """Wire and storage bytes per phase (failure-free vs episodes)."""
    rows: List[Sequence[Any]] = []
    for phase, nbytes in cost["wire"]["by_phase"].items():
        rows.append(("wire", phase, nbytes))
    for phase, nbytes in cost["storage"]["by_phase"].items():
        rows.append(("storage", phase, nbytes))
    return format_table(("domain", "phase", "bytes"), rows, title=title)


def link_matrix_table(cost: Dict[str, Any], title: Optional[str] = None) -> str:
    """Directed per-link wire bytes, rebuilt from the account list."""
    links: Dict[Tuple[Any, Any], int] = {}
    for domain, proc, peer, _purpose, _phase, _count, nbytes in cost["accounts"]:
        if domain == "wire":
            links[(proc, peer)] = links.get((proc, peer), 0) + nbytes
    rows = [
        (src, dst, nbytes)
        for (src, dst), nbytes in sorted(links.items(), key=lambda kv: kv[1], reverse=True)
    ]
    return format_table(("src", "dst", "bytes"), rows, title=title)


def overhead_curve(
    timeseries: Sequence[Dict[str, Any]],
    width: int = 50,
    title: Optional[str] = None,
) -> str:
    """ASCII overhead-vs-time curve from ``extra["timeseries"]``.

    Each line is one sample window: its end time, the wire bytes it
    carried, the window's overhead share (non-app fraction) as a bar,
    and the phase the window ended in.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    if not timeseries:
        lines.append("(no samples)")
        return "\n".join(lines)
    peak = max(sample["wire_bytes"] for sample in timeseries) or 1
    for sample in timeseries:
        wire_bytes = sample["wire_bytes"]
        app = sample["wire"].get("app-payload", 0)
        share = 1.0 - app / wire_bytes if wire_bytes else 0.0
        bar = "#" * max(1 if wire_bytes else 0, round(width * wire_bytes / peak))
        lines.append(
            f"{sample['t']:>10.4f}s {wire_bytes:>10d} B "
            f"ovh {100 * share:5.1f}% {sample['phase']:<14} {bar}"
        )
    return "\n".join(lines)


def conservation_table(cost: Dict[str, Any], title: Optional[str] = None) -> str:
    """The byte-conservation checks as a pass/fail table."""
    conservation = cost.get("conservation")
    if conservation is None:
        return "(no conservation data: run summary lacked stats)"
    rows: List[Sequence[Any]] = []
    for name, check in conservation.items():
        if isinstance(check, dict):
            status = "ok" if check["ledger"] == check["expected"] else "MISMATCH"
            rows.append((name, check["ledger"], check["expected"], status))
    rows.append(
        ("per_device", "-", "-", "ok" if conservation["per_device"] else "MISMATCH")
    )
    return format_table(("check", "ledger", "expected", "status"), rows, title=title)


def format_cost_report(
    cost: Dict[str, Any],
    timeseries: Optional[Sequence[Dict[str, Any]]] = None,
    label: Optional[str] = None,
) -> str:
    """The full plain-text report for one run or merged ledger."""
    header = f"cost report{f' -- {label}' if label else ''}"
    sections = [
        header,
        "=" * len(header),
        f"wire: {cost['wire']['total_bytes']} bytes in "
        f"{cost['wire']['messages']} messages "
        f"({cost['wire']['retransmits']} retransmits); "
        f"overhead share {100 * cost.get('overhead_share', 0.0):.1f}%",
        f"storage: {cost['storage']['total_bytes']} bytes in "
        f"{cost['storage']['ops']} device ops; "
        f"gc reclaimed {cost['gc']['total_bytes']} bytes; "
        f"recovery episodes {cost.get('episodes', 0)}",
        "",
        purpose_table(cost, title="breakdown by purpose"),
        "",
        phase_table(cost, title="breakdown by phase"),
        "",
        link_matrix_table(cost, title="per-link wire bytes"),
    ]
    if "conservation" in cost:
        sections += ["", conservation_table(cost, title="byte conservation")]
    if timeseries:
        sections += ["", overhead_curve(timeseries, title="overhead vs time")]
    return "\n".join(sections)
