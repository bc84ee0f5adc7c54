"""Outside-in span tracing: class-level timing shims at layer boundaries.

The program is not edited.  :class:`Tracer` replaces, on the *classes*
and before any ``System`` is built (nodes, emitters and subscribers
pre-bind methods at build time), each layer's entry points with a shim
that opens an in-memory span -- (entry, start, end, parent) -- on one
stack.  Nothing is written or aggregated while the program runs;
:meth:`Tracer.aggregate` folds the spans afterwards.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans sum to
the duration of the root span exactly.

Entry points are of three sorts:

* the public methods other layers call (``_entry_points`` below);
* every public method defined by a class in the MROs of ``PROTOCOLS`` /
  ``RECOVERY_MANAGERS`` (the hooks ``Node`` and the managers call);
* ``Event.fire``: the kernel handing control to a callback.  The span is
  charged to the layer that *owns the callback* (by its module), so
  ``sim`` self time is the kernel's own work -- heap pushes, pops,
  cancels, the run loop -- and a timer or completion callback is not
  mistaken for kernel time.

Spans are clocked by ``time.perf_counter()``, not by the CPU clock the
rest of the benchmark uses: ``time.process_time()`` is a 0.73 us system
call on the reference sandbox (perf_counter: 0.18 us), two reads per
span, ~15 spans per simulated event -- traced/untraced measured 1.50-1.54
with it against 1.26-1.28 with perf_counter.  The program never blocks,
so a wall span is CPU time plus whatever preemption fell into it, and
preemption falls on layers in proportion to the time they run: shares
are unbiased, and the caller scales seconds by the rep's CPU/wall ratio.
"""

from __future__ import annotations

import gc
import inspect
import json
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

#: no-op calls :func:`shim_cost` times, bare and shimmed
_CALIBRATION_CALLS = 20_000

#: layers in report order.  ``gc`` is the interpreter's cyclic collector
#: (a collection strikes whichever layer allocates next, so left inside
#: the spans a single full collection moves a layer's share by points);
#: ``bench`` is the root span's self time, i.e. whatever no entry point
#: covers (``bench.unattributed_share``)
LAYERS = (
    "sim", "net", "transport", "storage", "protocols", "recovery", "procs",
    "core", "trace", "sanitizer", "obs", "runner", "gc", "bench",
)

#: module prefix -> layer, first match wins (callbacks fired by the kernel)
_MODULE_LAYERS = (
    ("repro.net.transport", "transport"),
    ("repro.net", "net"),
    ("repro.storage", "storage"),
    ("repro.protocols", "protocols"),
    ("repro.recovery", "recovery"),
    ("repro.procs", "procs"),
    ("repro.core", "core"),
    ("repro.sanitizer", "sanitizer"),
    ("repro.obs", "obs"),
    ("repro.runner", "runner"),
)


class Entry(NamedTuple):
    """One shimmed entry point."""

    layer: str
    name: str


class EntryTotals(NamedTuple):
    """Aggregate over every span of one entry point (raw clock readings)."""

    calls: int
    #: direct child spans opened under this entry's spans
    children: int
    inclusive_s: float
    self_s: float


class ShimCost(NamedTuple):
    """What one span adds, measured by :func:`shim_cost`."""

    #: seconds that land inside the span's own (start, end) interval
    inside_s: float
    #: seconds that land in the parent's interval, around the span
    outside_s: float


def _entry_points() -> Iterator[Tuple[str, type, Tuple[str, ...]]]:
    """(layer, class, method names) for the fixed entry points."""
    from repro.core.node import Node
    from repro.core.oracle import ConsistencyOracle
    from repro.core.system import System
    from repro.net.network import Network
    from repro.net.transport import ReliableTransport
    from repro.obs import CostLedger
    from repro.procs.process import ApplicationProcess
    from repro.recovery.sequencer import Sequencer
    from repro.runner import TrialSpec
    from repro.sanitizer.monitor import Sanitizer
    from repro.sim.events import EventHandle
    from repro.sim.kernel import Simulator
    from repro.sim.profile import SimProfiler
    from repro.sim.trace import BoundEmitter, TraceRecorder
    from repro.storage.checkpoint import CheckpointStore
    from repro.storage.stable import StableStorage

    yield "sim", Simulator, (
        "run", "schedule", "schedule_at", "schedule_fast", "schedule_fast_at",
    )
    yield "sim", EventHandle, ("cancel",)
    yield "net", Network, ("send", "transmit", "broadcast", "hand_to_handler")
    yield "transport", ReliableTransport, ("send", "on_ack", "on_receive")
    yield "storage", StableStorage, (
        "write", "read", "log_append", "log_read", "log_truncate_head", "reclaim",
    )
    yield "storage", CheckpointStore, ("save", "restore")
    yield "recovery", Sequencer, ("receive",)
    yield "procs", ApplicationProcess, ("deliver",)
    yield "core", Node, (
        "receive", "deliver_app", "crash", "begin_restart", "apply_checkpoint",
        "complete_recovery", "maybe_checkpoint", "commit_output",
    )
    yield "core", System, ("__init__", "summarize")
    yield "core", ConsistencyOracle, ("on_send", "on_deliver", "check_safety")
    # the emitter is TraceRecorder.record pre-bound to one category.action
    yield "trace", TraceRecorder, ("record",)
    yield "trace", BoundEmitter, ("__call__",)
    yield "sanitizer", Sanitizer, ("on_event", "finalize")
    yield "obs", CostLedger, (
        "charge_wire", "charge_storage", "charge_batch", "charge_gc", "summary",
    )
    yield "obs", SimProfiler, ("fire",)
    yield "runner", TrialSpec, ("materialize",)


def _hook_families() -> Iterator[Tuple[str, type]]:
    """(layer, class) for every class a protocol / recovery manager
    inherits from inside its own package."""
    from repro.protocols import PROTOCOLS
    from repro.recovery import RECOVERY_MANAGERS

    for layer, registry in (("protocols", PROTOCOLS), ("recovery", RECOVERY_MANAGERS)):
        seen = set()
        for leaf in registry.values():
            for cls in leaf.__mro__:
                if cls.__module__.startswith(f"repro.{layer}") and cls not in seen:
                    seen.add(cls)
                    yield layer, cls


class Tracer:
    """Installs the shims, holds the spans, folds them afterwards."""

    def __init__(self) -> None:
        self.entries: List[Entry] = []
        # parallel columns, one row per span
        self.entry_of: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        #: index of the innermost open span (-1 outside any span)
        self._current = [-1]
        #: (owner, attribute, original) for everything replaced
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- shims ---------------------------------------------------------
    def _new_entry(self, layer: str, name: str) -> int:
        self.entries.append(Entry(layer, name))
        return len(self.entries) - 1

    def _shim(self, fn: Callable[..., Any], entry: int) -> Callable[..., Any]:
        entry_of, start, end, parent = self.entry_of, self.start, self.end, self.parent
        current = self._current

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            outer = current[0]
            current[0] = index
            entry_of.append(entry)
            parent.append(outer)
            end.append(0.0)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                current[0] = outer

        traced._e2e_layer = self.entries[entry].layer  # type: ignore[attr-defined]
        return traced

    def _dispatch_shim(self, fire: Callable[..., Any]) -> Callable[..., Any]:
        """``Event.fire`` charged to the layer owning the callback."""
        # the kernel's own callbacks (timers) stay inside Simulator.run
        per_layer: Dict[str, Callable[..., Any]] = {"sim": fire}
        #: callback's module (or, for a shimmed method, its layer) -> fire variant
        per_owner: Dict[str, Callable[..., Any]] = {}

        def traced_fire(event: Any) -> Any:
            func = getattr(event.fn, "__func__", event.fn)
            owner = getattr(func, "_e2e_layer", None) or getattr(func, "__module__", None) or ""
            shim = per_owner.get(owner)
            if shim is None:
                layer = owner if owner in LAYERS else next(
                    (lay for prefix, lay in _MODULE_LAYERS if owner.startswith(prefix)), "sim"
                )
                if layer not in per_layer:
                    per_layer[layer] = self._shim(fire, self._new_entry(layer, "Event.fire"))
                shim = per_owner[owner] = per_layer[layer]
            return shim(event)

        return traced_fire

    def _gc_callback(self) -> Callable[[str, Dict[str, int]], None]:
        """A ``gc.callbacks`` hook that brackets each collection in a span."""
        entry = self._new_entry("gc", "collect")
        entry_of, start, end, parent = self.entry_of, self.start, self.end, self.parent
        current = self._current

        def on_gc(phase: str, info: Dict[str, int]) -> None:
            if phase == "start":
                parent.append(current[0])
                current[0] = len(start)
                entry_of.append(entry)
                end.append(0.0)
                start.append(perf_counter())
            else:
                index = current[0]
                end[index] = perf_counter()
                current[0] = parent[index]

        return on_gc

    def _replace(self, owner: Any, name: str, shim: Callable[..., Any]) -> None:
        self._installed.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, shim)

    def install(self) -> None:
        """Swap every entry point for its shim.  Call before building
        any ``System``; undo with :meth:`uninstall`."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        import repro.runner
        from repro.sim.events import Event

        for layer, cls, names in _entry_points():
            for name in names:
                fn = cls.__dict__.get(name)
                if not inspect.isfunction(fn):
                    raise LookupError(
                        f"entry point {cls.__name__}.{name} is gone; update spans.py"
                    )
                entry = self._new_entry(layer, f"{cls.__name__}.{name}")
                self._replace(cls, name, self._shim(fn, entry))
        for layer, cls in _hook_families():
            for name, fn in list(cls.__dict__.items()):
                if inspect.isfunction(fn) and not name.startswith("_"):
                    entry = self._new_entry(layer, f"{cls.__name__}.{name}")
                    self._replace(cls, name, self._shim(fn, entry))
        self._replace(Event, "fire", self._dispatch_shim(Event.__dict__["fire"]))
        # a module global that TrialRunner.run looks up per call
        entry = self._new_entry("runner", "run_trial")
        self._replace(repro.runner, "run_trial", self._shim(repro.runner.run_trial, entry))
        self._gc_hook = self._gc_callback()
        gc.callbacks.append(self._gc_hook)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        gc.callbacks.remove(self._gc_hook)
        while self._installed:
            cls, name, original = self._installed.pop()
            setattr(cls, name, original)

    # -- the root span -------------------------------------------------
    def run_root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside the root span (layer ``bench``)."""
        return self._shim(fn, self._new_entry("bench", "root"))()

    # -- folding -------------------------------------------------------
    def aggregate(self) -> Dict[Entry, EntryTotals]:
        """Calls, inclusive and self seconds per entry point."""
        spans = len(self.start)
        children = [0.0] * spans
        duration = [0.0] * spans
        child_count = [0] * len(self.entries)
        for index in range(spans):
            duration[index] = self.end[index] - self.start[index]
            outer = self.parent[index]
            if outer >= 0:
                children[outer] += duration[index]
                child_count[self.entry_of[outer]] += 1
        calls = [0] * len(self.entries)
        inclusive = [0.0] * len(self.entries)
        own = [0.0] * len(self.entries)
        for index in range(spans):
            entry = self.entry_of[index]
            calls[entry] += 1
            inclusive[entry] += duration[index]
            own[entry] += duration[index] - children[index]
        return {
            entry: EntryTotals(calls[i], child_count[i], inclusive[i], own[i])
            for i, entry in enumerate(self.entries)
            if calls[i]
        }

    def durations(self, entry: Entry) -> List[float]:
        """Inclusive seconds of each span of one entry point, in order."""
        wanted = self.entries.index(entry)
        return [
            self.end[i] - self.start[i]
            for i, which in enumerate(self.entry_of) if which == wanted
        ]

    def write(self, path: str) -> None:
        """Dump the raw spans, column-wise, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "entries": [list(entry) for entry in self.entries],
                    "entry": self.entry_of,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                },
                handle,
            )


def shim_cost() -> ShimCost:
    """Price one span by timing a shimmed no-op against the bare no-op.

    A span's own interval holds the tail of its first clock read and the
    head of its second; the rest of the shim runs in the parent's
    interval.  Tiny hot entry points (a trace counter bump, an oracle
    hook) would otherwise be charged more shim than work.
    """

    def noop() -> None:
        return None

    probe = Tracer()
    shimmed = probe._shim(noop, probe._new_entry("bench", "noop"))
    begin = perf_counter()
    for _ in range(_CALIBRATION_CALLS):
        noop()
    bare = perf_counter() - begin
    begin = perf_counter()
    for _ in range(_CALIBRATION_CALLS):
        shimmed()
    traced = perf_counter() - begin
    inside = (sum(probe.end) - sum(probe.start)) / _CALIBRATION_CALLS
    return ShimCost(inside, max(0.0, (traced - bare) / _CALIBRATION_CALLS - inside))


def layer_self_seconds(
    totals: Dict[Entry, EntryTotals], cost: ShimCost = ShimCost(0.0, 0.0)
) -> Dict[str, float]:
    """Self seconds per layer (every layer present, 0.0 when unused).

    With ``cost`` given, each span's share of the shim is taken out:
    ``inside_s`` per span and ``outside_s`` per direct child.
    """
    by_layer = {layer: 0.0 for layer in LAYERS}
    for entry, total in totals.items():
        shim = total.calls * cost.inside_s + total.children * cost.outside_s
        by_layer[entry.layer] += max(0.0, total.self_s - shim)
    return by_layer
