"""Time-resolved cost sampling with bounded memory.

:class:`CostSampler` snapshots the :class:`~repro.obs.ledger.CostLedger`'s
totals into fixed-width windows of virtual time, producing the
overhead-vs-time curves the ROADMAP's serving scenario needs
(``RunResult.extra["timeseries"]``).

The sampler never schedules simulated events — a kernel timer would
prevent quiescence and perturb event ordering.  Instead it flushes
*lazily*: every ledger charge first closes any window boundary the clock
has passed, so a window's totals contain exactly the charges with
``time < boundary`` (each charge flows through the ledger, and each
flush happens before the triggering charge is applied).  The cost on
the hot path is one float comparison.

Memory is bounded: past ``max_samples`` windows, adjacent pairs merge
and the window width doubles — the curve coarsens instead of growing,
so arbitrarily long runs keep a flat footprint.  Each sample records as
``window`` the span it covers, so the samples tile ``[0, last t]``:
merged (wider) samples, the half step that re-joins the coarser grid
after a merge, and the final partial window all render correctly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class CostSampler:
    """Windowed snapshots of the ledger's totals.

    Parameters
    ----------
    ledger:
        The :class:`~repro.obs.ledger.CostLedger` to sample; the sampler
        binds itself as ``ledger._sampler`` so charges trigger flushes.
    window:
        Initial window width in virtual seconds.
    max_samples:
        Downsampling threshold: when exceeded, adjacent samples merge
        pairwise and the width doubles (must be >= 2).
    trace:
        Optional :class:`~repro.sim.trace.TraceRecorder`; when given,
        each closed window is also recorded as a ``cost.sample`` trace
        event, so archived JSONL traces carry the curve (rendered as
        Perfetto counter tracks by :mod:`repro.analysis.chrome`).
    """

    def __init__(
        self,
        ledger: Any,
        window: float,
        max_samples: int = 512,
        trace: Optional[Any] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples!r}")
        self.ledger = ledger
        self.window = float(window)
        self.max_samples = max_samples
        self.trace = trace
        self.samples: List[Dict[str, Any]] = []
        #: the next unflushed window boundary (charges at >= this time
        #: close it first) — read directly by the ledger's hot path
        self.next_boundary = self.window
        #: span of the open window (the one ``next_boundary`` closes)
        self._width = self.window
        self._last = ledger.totals()
        self._finalized = False
        ledger._sampler = self

    # ------------------------------------------------------------------
    def flush_to(self, now: float) -> None:
        """Close every window boundary at or before ``now``.

        Called by the ledger *before* applying the charge timestamped
        ``now``, so the closed windows contain exactly the earlier
        charges.
        """
        while self.next_boundary <= now:
            boundary, width = self.next_boundary, self._width
            self.next_boundary += self.window
            self._width = self.window
            self._close_window(boundary, width)

    def _close_window(self, boundary: float, width: float) -> None:
        current = self.ledger.totals()
        last = self._last
        wire_delta = {
            purpose: total - last["wire"].get(purpose, 0)
            for purpose, total in current["wire"].items()
            if total - last["wire"].get(purpose, 0)
        }
        sample: Dict[str, Any] = {
            "t": boundary,
            "window": width,
            "wire": wire_delta,
            "wire_bytes": current["wire_bytes"] - last["wire_bytes"],
            "wire_messages": current["wire_messages"] - last["wire_messages"],
            "storage_bytes": current["storage_bytes"] - last["storage_bytes"],
            "storage_ops": current["storage_ops"] - last["storage_ops"],
            "gc_bytes": current["gc_bytes"] - last["gc_bytes"],
            "phase": self.ledger.phase,
        }
        self._last = current
        self.samples.append(sample)
        if self.trace is not None:
            self.trace.record(
                boundary, "cost", None, "sample",
                window=sample["window"],
                wire=dict(wire_delta),
                wire_bytes=sample["wire_bytes"],
                storage_bytes=sample["storage_bytes"],
                gc_bytes=sample["gc_bytes"],
                phase=sample["phase"],
            )
        if len(self.samples) > self.max_samples:
            self._downsample()

    def _downsample(self) -> None:
        """Merge adjacent sample pairs and double the window width."""
        merged: List[Dict[str, Any]] = []
        samples = self.samples
        i = 0
        while i < len(samples):
            if i + 1 < len(samples):
                a, b = samples[i], samples[i + 1]
                wire: Dict[str, int] = dict(a["wire"])
                for purpose, size in b["wire"].items():
                    wire[purpose] = wire.get(purpose, 0) + size
                combined = {
                    "t": b["t"],
                    "window": a["window"] + b["window"],
                    "wire": wire,
                    "wire_bytes": a["wire_bytes"] + b["wire_bytes"],
                    "wire_messages": a["wire_messages"] + b["wire_messages"],
                    "storage_bytes": a["storage_bytes"] + b["storage_bytes"],
                    "storage_ops": a["storage_ops"] + b["storage_ops"],
                    "gc_bytes": a["gc_bytes"] + b["gc_bytes"],
                    "phase": b["phase"],
                }
                merged.append(combined)
                i += 2
            else:
                merged.append(samples[i])
                i += 1
        self.samples = merged
        if round(self.next_boundary / self.window) % 2:
            # the next boundary is not on the coarser grid: the open
            # window runs on to the grid point after it
            self.next_boundary += self.window
            self._width += self.window
        self.window *= 2

    # ------------------------------------------------------------------
    def finalize(self, end_time: float) -> None:
        """Close all complete windows, then one final partial window at
        ``end_time`` so trailing charges are never dropped.  Idempotent
        (``summarize`` may run more than once)."""
        if self._finalized:
            return
        self._finalized = True
        self.flush_to(end_time)
        if self.ledger.totals() != self._last and end_time > 0:
            # trailing charges past the last full boundary: emit one
            # partial window whose recorded width is its actual span
            width = end_time - (self.next_boundary - self._width)
            self._width -= width
            self._close_window(end_time, width)
