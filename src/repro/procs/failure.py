"""Fault injection (crashes, link faults, partitions, storage faults)
and timeout failure detection.

The paper's evaluation hinges on *when* failures happen (a second crash
during another process's recovery is the interesting case) and on how
long they take to notice ("a typical implementation would require several
seconds of timeouts and retrials to detect that process q has indeed
failed").  This module provides:

* :class:`FailureInjector` -- the unified fault planner.  It applies a
  list of plans, each either *timed* (fire at a fixed virtual time) or
  *trace-triggered* ("the moment q receives p's depinfo request"):

  - :class:`CrashPlan` -- crash-stop a process (the seed's only fault),
  - :class:`LinkFaultPlan` -- switch probabilistic loss / duplication /
    reordering on for one link or the whole network, optionally
    reverting after a duration,
  - :class:`PartitionPlan` -- cut the network into groups, healing after
    a duration,
  - :class:`StorageFaultPlan` -- degrade a node's stable storage with
    transient I/O faults (an outage window or a failure probability).

* :class:`FailureDetector` -- a timeout-style detector modelled as an
  oracle with delay: a crash becomes visible to every peer (and to the
  restart machinery) exactly ``detection_delay`` seconds after it
  happens.  Within the crash-stop model and ≤ f failures this is a
  faithful abstraction of the paper's timeout/retry detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.sim.kernel import Simulator
from repro.sim.trace import TraceEvent, TraceRecorder

#: The paper's "several seconds of timeouts and retrials".
DEFAULT_DETECTION_DELAY = 3.0


class FailureDetector:
    """Timeout failure detector with a fixed detection latency.

    ``notify_crash``/``notify_up`` are called by the system at the
    instant a node crashes or completes recovery; listeners hear about it
    ``detection_delay`` (respectively ``up_delay``) seconds later.
    """

    def __init__(
        self,
        sim: Simulator,
        detection_delay: float = DEFAULT_DETECTION_DELAY,
        up_delay: float = 0.0,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if detection_delay < 0 or up_delay < 0:
            raise ValueError("delays must be non-negative")
        self.sim = sim
        self.detection_delay = detection_delay
        self.up_delay = up_delay
        self.trace = trace
        self._listeners: List[Callable[[int, str], None]] = []
        self._suspected: Set[int] = set()
        self._known: Set[int] = set()
        #: per-node notification sequence; a pending announcement is
        #: superseded (dropped) by any later notify_crash/notify_up
        self._notify_seq: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def register_node(self, node_id: int) -> None:
        """Declare a node as part of the membership."""
        self._known.add(node_id)

    def add_listener(self, callback: Callable[[int, str], None]) -> None:
        """``callback(node_id, status)`` with status ``"down"`` or ``"up"``."""
        self._listeners.append(callback)

    # ------------------------------------------------------------------
    def notify_crash(self, node_id: int) -> None:
        """Report a crash; suspicion propagates after the detection delay."""
        seq = self._notify_seq.get(node_id, 0) + 1
        self._notify_seq[node_id] = seq
        self.sim.schedule(
            self.detection_delay,
            self._announce,
            node_id,
            "down",
            seq,
            label="detector.down",
        )

    def notify_up(self, node_id: int) -> None:
        """Report a completed recovery; visibility after ``up_delay``."""
        seq = self._notify_seq.get(node_id, 0) + 1
        self._notify_seq[node_id] = seq
        self.sim.schedule(
            self.up_delay, self._announce, node_id, "up", seq, label="detector.up"
        )

    def _announce(self, node_id: int, status: str, seq: int) -> None:
        if seq != self._notify_seq.get(node_id, 0):
            return  # superseded by a newer crash/recovery of the same node
        if status == "down":
            self._suspected.add(node_id)
        else:
            self._suspected.discard(node_id)
        if self.trace is not None:
            self.trace.record(self.sim.now, "detector", node_id, status)
        for listener in list(self._listeners):
            listener(node_id, status)

    # ------------------------------------------------------------------
    def is_suspected(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently suspected down."""
        return node_id in self._suspected

    def live_view(self) -> Set[int]:
        """Nodes not currently suspected (the detector's view of L)."""
        return self._known - self._suspected

    def suspected_view(self) -> Set[int]:
        """Nodes currently suspected (the detector's view of R)."""
        return set(self._suspected)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureDetector(delay={self.detection_delay}, suspected={sorted(self._suspected)})"


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TriggeredPlan:
    """Shared trigger machinery for every fault plan.

    Either ``at_time`` is set (timed plan) or ``category``/``action``
    describe a trace trigger, optionally filtered by ``match_node`` and
    fired ``delay`` seconds after the ``occurrence``-th matching event.
    ``immediate=True`` fires synchronously inside the trace callback,
    i.e. *before* the handler of the traced event runs -- it is
    incompatible with a positive ``delay`` (construction raises).

    A plan is a value: its trigger state belongs to each run's
    :class:`FailureInjector`, so one plan serves any number of runs.
    """

    at_time: Optional[float] = None
    category: Optional[str] = None
    action: Optional[str] = None
    match_node: Optional[int] = None
    match_details: Optional[Dict[str, object]] = None
    delay: float = 0.0
    occurrence: int = 1
    immediate: bool = False

    def __post_init__(self) -> None:
        if self.immediate and self.delay > 0:
            raise ValueError(
                "immediate=True fires inside the trace callback and cannot "
                f"be combined with delay={self.delay!r}; use one or the other"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay!r}")
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {self.occurrence!r}")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError(f"at_time must be non-negative, got {self.at_time!r}")

    def is_timed(self) -> bool:
        return self.at_time is not None

    def matches(self, event: TraceEvent) -> bool:
        if self.is_timed():
            return False
        if not event.matches(self.category, self.match_node, self.action):
            return False
        if self.match_details:
            details = event.details
            for key, value in self.match_details.items():
                if details.get(key) != value:
                    return False
        return True


@dataclass(frozen=True)
class CrashPlan(TriggeredPlan):
    """One planned crash-stop failure of ``node``."""

    node: int = -1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node < 0:
            raise ValueError("CrashPlan needs a target node")


@dataclass(frozen=True)
class LinkFaultPlan(TriggeredPlan):
    """Switch probabilistic link faults on (and optionally back off).

    With ``src``/``dst`` unset the plan replaces the network-wide default
    spec; with both set it overrides one directed link.  ``duration``
    restores the previous spec that many seconds after firing.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay: float = 0.002
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.src is None) != (self.dst is None):
            raise ValueError("give both src and dst, or neither (whole network)")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")


@dataclass(frozen=True)
class PartitionPlan(TriggeredPlan):
    """Cut the network into ``groups`` when fired; heal after ``duration``
    (``None`` = never heals)."""

    groups: Sequence[Iterable[int]] = ()
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(tuple(self.groups)) < 2:
            raise ValueError("a partition plan needs at least two groups")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")


@dataclass(frozen=True)
class StorageFaultPlan(TriggeredPlan):
    """Degrade stable storage on ``node`` (or every node if ``None``).

    With ``fail_prob`` unset the plan opens a full outage window: every
    operation attempted during ``duration`` fails and is retried with
    backoff until the window heals.  With ``fail_prob`` set, attempts
    fail with that probability for ``duration`` seconds (or forever).
    """

    node: Optional[int] = None
    fail_prob: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fail_prob is None and self.duration is None:
            raise ValueError(
                "a permanent full outage would exhaust every retry budget; "
                "give a duration, a fail_prob, or both"
            )
        if self.fail_prob is not None and not 0.0 <= self.fail_prob < 1.0:
            raise ValueError(f"fail_prob must be in [0, 1), got {self.fail_prob!r}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")


def crash_at(node: int, time: float) -> CrashPlan:
    """A crash of ``node`` at a fixed virtual time."""
    if time < 0:
        raise ValueError(f"crash time must be non-negative, got {time!r}")
    return CrashPlan(node=node, at_time=time)


def crash_on(
    node: int,
    category: str,
    action: str,
    match_node: Optional[int] = None,
    match_details: Optional[Dict[str, object]] = None,
    delay: float = 0.0,
    occurrence: int = 1,
    immediate: bool = False,
) -> CrashPlan:
    """A crash of ``node`` triggered by a trace event.

    Example: ``crash_on(2, "recovery", "depinfo_request_received",
    match_node=2)`` reproduces the paper's E2 scenario -- q dies exactly
    when it receives the recovery leader's request, before replying.
    """
    return CrashPlan(
        node=node,
        category=category,
        action=action,
        match_node=match_node,
        match_details=match_details,
        delay=delay,
        occurrence=occurrence,
        immediate=immediate,
    )


def partition_at(
    groups: Sequence[Iterable[int]], time: float, duration: Optional[float] = None
) -> PartitionPlan:
    """Partition the network into ``groups`` at ``time``; heal after
    ``duration`` seconds (``None`` = never)."""
    return PartitionPlan(groups=groups, at_time=time, duration=duration)


def link_faults_at(
    time: float,
    loss_prob: float = 0.0,
    dup_prob: float = 0.0,
    reorder_prob: float = 0.0,
    reorder_delay: float = 0.002,
    src: Optional[int] = None,
    dst: Optional[int] = None,
    duration: Optional[float] = None,
) -> LinkFaultPlan:
    """Turn probabilistic link faults on at ``time``."""
    return LinkFaultPlan(
        at_time=time,
        loss_prob=loss_prob,
        dup_prob=dup_prob,
        reorder_prob=reorder_prob,
        reorder_delay=reorder_delay,
        src=src,
        dst=dst,
        duration=duration,
    )


def storage_outage_at(
    node: Optional[int], time: float, duration: float
) -> StorageFaultPlan:
    """A full stable-storage outage on ``node`` over ``[time, time+duration)``."""
    return StorageFaultPlan(node=node, at_time=time, duration=duration)


class FailureInjector:
    """Applies fault plans (crash / link / partition / storage) to a
    running system.

    ``crash_fn(node_id)`` performs the actual crash; link and partition
    plans mutate the ``network``'s fault model (installing one on demand),
    and storage plans mutate the fault models of the ``storages`` mapping.
    The injector only decides *when*.  Crashing an already-crashed node
    is a silent no-op, matching the crash-stop model.
    """

    def __init__(
        self,
        sim: Simulator,
        trace: TraceRecorder,
        crash_fn: Callable[[int], None],
        plans: Optional[List[TriggeredPlan]] = None,
        network: Optional["Network"] = None,
        storages: Optional[Dict[int, "StableStorage"]] = None,
    ) -> None:
        self.sim = sim
        self.trace = trace
        self.crash_fn = crash_fn
        self.network = network
        self.storages = storages or {}
        self.plans: List[TriggeredPlan] = list(plans or [])
        #: this run's trigger state, by position in ``plans``: matching
        #: events seen so far, ``None`` for a timed or a fired plan
        self._matched = [None if plan.is_timed() else 0 for plan in self.plans]
        self.crashes_fired: List[tuple] = []
        #: trace keys subscribed to; ``None`` in it = the whole recorder
        self._subscribed: Set[Optional[str]] = set()

    def arm(self) -> None:
        """Schedule timed plans and subscribe trace triggers."""
        for plan in self.plans:
            self._arm(plan)

    def add(self, plan: TriggeredPlan) -> None:
        """Add one more plan after arming."""
        self.plans.append(plan)
        self._matched.append(None if plan.is_timed() else 0)
        self._arm(plan)

    @staticmethod
    def _trace_key(plan: TriggeredPlan) -> Optional[str]:
        """The ``category.action`` a trace-triggered plan listens on;
        ``None`` for a wildcard plan, which needs the whole recorder."""
        if plan.category is not None and plan.action is not None:
            return f"{plan.category}.{plan.action}"
        return None

    def _arm(self, plan: TriggeredPlan) -> None:
        if plan.is_timed():
            self.sim.schedule_at(plan.at_time, self._fire, plan, label="inject.plan")
            return
        # a plan naming both category and action listens on that key
        # alone, so with tracing off only those records build an event;
        # a wildcard plan needs the whole recorder, which then serves
        # the keyed plans too (one subscription path per event) -- and
        # runs before the keyed observers, which only an ``immediate``
        # wildcard plan can tell
        key = self._trace_key(plan)
        if key in self._subscribed or None in self._subscribed:
            return
        if key is None:
            self._unsubscribe(set(self._subscribed))
        self._subscribed.add(key)
        self.trace.subscribe(self._on_trace_event, key)

    def _unsubscribe(self, keys: Set[Optional[str]]) -> None:
        for key in keys:
            self.trace.unsubscribe(self._on_trace_event, key)
        self._subscribed -= keys

    # ------------------------------------------------------------------
    def _on_trace_event(self, event: TraceEvent) -> None:
        matched = self._matched
        spent = False
        for index, plan in enumerate(self.plans):
            if matched[index] is not None and plan.matches(event):
                matched[index] += 1
                if matched[index] >= plan.occurrence:
                    matched[index] = None
                    spent = True
                    if plan.immediate:
                        # preempt the traced event's handler (delay > 0 is
                        # rejected at plan construction)
                        self._fire(plan)
                    elif plan.delay > 0:
                        self.sim.schedule(plan.delay, self._fire, plan, label="inject.plan")
                    else:
                        # fire after the current event finishes dispatching
                        self.sim.schedule(0.0, self._fire, plan, label="inject.plan")
        if spent:
            # stop listening where no armed plan is left, so the records
            # of a spent trigger go back to the counters-only path (the
            # whole recorder, once subscribed, serves any armed plan)
            armed = {
                self._trace_key(plan)
                for plan, seen in zip(self.plans, matched)
                if seen is not None
            }
            if not (armed and None in self._subscribed):
                self._unsubscribe(self._subscribed - armed)

    # ------------------------------------------------------------------
    def _fire(self, plan: TriggeredPlan) -> None:
        if isinstance(plan, CrashPlan):
            self._fire_crash(plan)
        elif isinstance(plan, LinkFaultPlan):
            self._fire_link(plan)
        elif isinstance(plan, PartitionPlan):
            self._fire_partition(plan)
        elif isinstance(plan, StorageFaultPlan):
            self._fire_storage(plan)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown plan type {type(plan).__name__}")

    def _fire_crash(self, plan: CrashPlan) -> None:
        self.crashes_fired.append((self.sim.now, plan.node))
        self.trace.record(self.sim.now, "inject", plan.node, "crash")
        self.crash_fn(plan.node)

    def _require_network(self) -> "Network":
        if self.network is None:
            raise RuntimeError("link/partition plans need a network reference")
        return self.network

    def _fire_link(self, plan: LinkFaultPlan) -> None:
        from repro.net.faults import LinkFaultSpec

        model = self._require_network().ensure_faults()
        spec = LinkFaultSpec(
            loss_prob=plan.loss_prob,
            dup_prob=plan.dup_prob,
            reorder_prob=plan.reorder_prob,
            reorder_delay=plan.reorder_delay,
        )
        if plan.src is None:
            previous = model.set_default(spec)
            revert = lambda: model.set_default(previous)  # noqa: E731
        else:
            previous = model.set_link(plan.src, plan.dst, spec)
            if previous is None:
                revert = lambda: model.clear_link(plan.src, plan.dst)  # noqa: E731
            else:
                revert = lambda: model.set_link(plan.src, plan.dst, previous)  # noqa: E731
        self.trace.record(
            self.sim.now, "inject", plan.src, "link_faults",
            dst=plan.dst, loss=plan.loss_prob, dup=plan.dup_prob,
            reorder=plan.reorder_prob,
        )
        if plan.duration is not None:
            self.sim.schedule(plan.duration, self._revert_link, plan, revert,
                              label="inject.revert")

    def _revert_link(self, plan: LinkFaultPlan, revert: Callable[[], None]) -> None:
        revert()
        self.trace.record(
            self.sim.now, "inject", plan.src, "link_faults_reverted", dst=plan.dst
        )

    def _fire_partition(self, plan: PartitionPlan) -> None:
        from repro.net.faults import Partition

        model = self._require_network().ensure_faults()
        end = None if plan.duration is None else self.sim.now + plan.duration
        partition = model.add_partition(
            Partition(plan.groups, start=self.sim.now, end=end)
        )
        self.trace.record(
            self.sim.now, "inject", None, "partition",
            groups=[sorted(g) for g in partition.groups], heal_at=end,
        )
        if end is not None:
            self.sim.schedule_at(
                end,
                lambda: self.trace.record(self.sim.now, "inject", None, "partition_healed"),
                label="inject.heal",
            )

    def _fire_storage(self, plan: StorageFaultPlan) -> None:
        from repro.storage.stable import StorageFaultModel

        targets = (
            [self.storages[plan.node]] if plan.node is not None
            else [self.storages[k] for k in sorted(self.storages)]
        )
        end = None if plan.duration is None else self.sim.now + plan.duration
        for storage in targets:
            if storage.faults is None:
                storage.faults = StorageFaultModel()
                if storage.rng is None and self.network is not None:
                    storage.rng = self.network.rngs.stream(
                        f"storage.faults.{storage.owner}"
                    )
            if plan.fail_prob is None:
                storage.faults.add_window(self.sim.now, end)
            else:
                previous = storage.faults.fail_prob
                storage.faults.fail_prob = plan.fail_prob
                if end is not None:
                    self.sim.schedule_at(
                        end, self._revert_storage, storage, previous,
                        label="inject.revert",
                    )
        self.trace.record(
            self.sim.now, "inject", plan.node, "storage_faults",
            fail_prob=plan.fail_prob, heal_at=end,
        )

    def _revert_storage(self, storage: "StableStorage", previous: float) -> None:
        storage.faults.fail_prob = previous
        self.trace.record(
            self.sim.now, "inject", storage.owner, "storage_faults_reverted"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureInjector(plans={len(self.plans)}, crashes={len(self.crashes_fired)})"
