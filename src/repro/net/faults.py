"""Deterministic network fault models.

The seed simulator modelled a *perfect* network -- the only fault source
was a process crash.  This module grows it into a general fault-injection
substrate: per-link probabilistic or scheduled message **loss**,
**duplication**, **reordering** (extra delay that bypasses the FIFO
clamp), and **partitions** with heal times.  Every probabilistic decision
draws from the dedicated ``net.faults`` stream of the run's
:class:`~repro.sim.rng.RngRegistry` (bound by the network), so a chaotic run is exactly
repeatable from ``(seed, config)`` and adding faults never perturbs the
latency stream the failure-free experiments consume.

With no fault model installed the :class:`~repro.net.network.Network`
takes the exact same code path as the seed, keeping the paper's
experiments (E1--E9) byte-identical by default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass
class LinkFaultSpec:
    """Probabilistic fault behaviour of one (or every) directed link.

    ``loss_prob`` drops the message outright; ``dup_prob`` injects one
    extra copy with an independent latency draw; ``reorder_prob`` adds up
    to ``reorder_delay`` seconds of extra delay *without* the per-channel
    FIFO clamp, so a later message can overtake it.
    """

    loss_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_delay: float = 0.002

    def __post_init__(self) -> None:
        _check_prob("loss_prob", self.loss_prob)
        _check_prob("dup_prob", self.dup_prob)
        _check_prob("reorder_prob", self.reorder_prob)
        if self.reorder_delay < 0:
            raise ValueError(
                f"reorder_delay must be non-negative, got {self.reorder_delay!r}"
            )


@dataclass
class Partition:
    """A network cut active over ``[start, end)``.

    ``groups`` are sets of node ids; two nodes in *different* groups
    cannot exchange messages while the partition is active.  Nodes absent
    from every group are unaffected.  ``end=None`` means the partition
    never heals.
    """

    groups: Tuple[FrozenSet[int], ...]
    start: float = 0.0
    end: Optional[float] = None

    def __init__(
        self,
        groups: Iterable[Iterable[int]],
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> None:
        self.groups = tuple(frozenset(g) for g in groups)
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set = set()
        for group in self.groups:
            if seen & group:
                raise ValueError(f"node(s) {sorted(seen & group)} in two groups")
            seen |= group
        if end is not None and end < start:
            raise ValueError(f"partition heals before it starts: {start} > {end}")
        self.start = start
        self.end = end

    def active(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)

    def severs(self, src: int, dst: int, now: float) -> bool:
        if not self.active(now):
            return False
        src_group = dst_group = None
        for index, group in enumerate(self.groups):
            if src in group:
                src_group = index
            if dst in group:
                dst_group = index
        return src_group is not None and dst_group is not None and src_group != dst_group


@dataclass
class ScheduledDrop:
    """Deterministic (non-probabilistic) message loss.

    Drops messages matching the filters whose send falls in
    ``[start, end)``, up to ``max_drops`` of them (``None`` = unlimited).
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    mtype: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    max_drops: Optional[int] = None
    dropped: int = field(default=0, repr=False)

    def claims(self, src: int, dst: int, mtype: str, now: float) -> bool:
        if self.max_drops is not None and self.dropped >= self.max_drops:
            return False
        if now < self.start or (self.end is not None and now >= self.end):
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.mtype is not None and mtype != self.mtype:
            return False
        self.dropped += 1
        return True


@dataclass
class FaultDecision:
    """What the fault model decided for one transmission."""

    drop_cause: Optional[str] = None  # "loss" | "partition" | "scheduled"
    duplicates: int = 0
    extra_delay: float = 0.0

    @property
    def dropped(self) -> bool:
        return self.drop_cause is not None


#: a decision that leaves the message untouched (shared, immutable-by-use)
NO_FAULT = FaultDecision()
#: the three plain drops, shared the same way
_DROP_PARTITION = FaultDecision(drop_cause="partition")
_DROP_SCHEDULED = FaultDecision(drop_cause="scheduled")
_DROP_LOSS = FaultDecision(drop_cause="loss")


class NetworkFaultModel:
    """Aggregates every link-level fault source consulted per send.

    Decision order (first hit wins for drops): active partition,
    scheduled drops, probabilistic loss.  Duplication and reordering are
    only considered for messages that survive.
    """

    def __init__(
        self,
        default: Optional[LinkFaultSpec] = None,
        links: Optional[Dict[Tuple[int, int], LinkFaultSpec]] = None,
        partitions: Optional[Iterable[Partition]] = None,
        scheduled_drops: Optional[Iterable[ScheduledDrop]] = None,
    ) -> None:
        self.default = default or LinkFaultSpec()
        self.links: Dict[Tuple[int, int], LinkFaultSpec] = dict(links or {})
        self.partitions: List[Partition] = list(partitions or [])
        self.scheduled_drops: List[ScheduledDrop] = list(scheduled_drops or [])

    # -- mutators (used by the unified fault planner) -------------------
    def set_default(self, spec: LinkFaultSpec) -> LinkFaultSpec:
        """Replace the default spec; returns the previous one."""
        previous, self.default = self.default, spec
        return previous

    def set_link(self, src: int, dst: int, spec: LinkFaultSpec) -> Optional[LinkFaultSpec]:
        """Override one directed link; returns the previous override."""
        previous = self.links.get((src, dst))
        self.links[(src, dst)] = spec
        return previous

    def clear_link(self, src: int, dst: int) -> None:
        self.links.pop((src, dst), None)

    def add_partition(self, partition: Partition) -> Partition:
        self.partitions.append(partition)
        return partition

    # -- queries --------------------------------------------------------
    def severed(self, src: int, dst: int, now: float) -> bool:
        return any(p.severs(src, dst, now) for p in self.partitions)

    def decide(
        self, src: int, dst: int, mtype: str, now: float, rng: random.Random
    ) -> FaultDecision:
        """The fault outcome for one transmission attempt."""
        if self.partitions and self.severed(src, dst, now):
            return _DROP_PARTITION
        for drop in self.scheduled_drops:
            if drop.claims(src, dst, mtype, now):
                return _DROP_SCHEDULED
        # the link's spec; one with all three probabilities at zero falls
        # through to NO_FAULT without a draw
        spec = self.links.get((src, dst), self.default) if self.links else self.default
        if spec.loss_prob and rng.random() < spec.loss_prob:
            return _DROP_LOSS
        extra_delay = 0.0
        if spec.reorder_prob and rng.random() < spec.reorder_prob:
            extra_delay = rng.uniform(0.0, spec.reorder_delay)
        duplicates = 1 if spec.dup_prob and rng.random() < spec.dup_prob else 0
        if duplicates == 0 and extra_delay == 0.0:
            return NO_FAULT
        return FaultDecision(duplicates=duplicates, extra_delay=extra_delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkFaultModel(default={self.default}, links={len(self.links)}, "
            f"partitions={len(self.partitions)}, scheduled={len(self.scheduled_drops)})"
        )
