"""Shared causal bookkeeping for the oracle and the online sanitizer.

The happens-before structure both checkers need is the same: delivery
events ``(node, rsn)`` connected by program-order edges
``(x, k-1) -> (x, k)`` and, per message, an edge from the sender's
latest delivery before the send to the delivery of that message.
:class:`CausalGraph` owns that record; the
:class:`~repro.core.oracle.ConsistencyOracle` layers replay-determinism
checks on top of it at end of run, while
:class:`~repro.sanitizer.monitor.Sanitizer` consults it online, at the
event where an invariant can first be violated.

Rolled-back sends and deliveries are *archived* rather than dropped, so
orphan checks can still traverse the causal edges they induced.  The
archives are bounded by :meth:`CausalGraph.prune`, driven by the same GC
horizon the protocols use (a durable checkpoint covering ``covered``
deliveries): archived entries below the horizon are either shadowed by a
live replay re-record or causally below state that can never roll back,
so dropping them loses no detection power.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

#: a delivery slot: ``(receiver, rsn)``
DeliveryKey = Tuple[int, int]
#: a directed application send: ``(sender, ssn, dst)``
SendKey = Tuple[int, int, int]


class CausalGraph:
    """The causal record of one run: sends, deliveries, and rollbacks.

    Pure bookkeeping -- recording methods report what was already there
    (so callers can flag divergence) but never judge.  All state is plain
    dicts of tuples, picklable and cheap to copy.
    """

    def __init__(self) -> None:
        #: (sender, ssn, dst) -> deliveries the sender had made at send time
        self.send_context: Dict[SendKey, int] = {}
        #: (receiver, rsn) -> (sender, ssn)
        self.delivery: Dict[DeliveryKey, Tuple[int, int]] = {}
        #: archives of permanently rolled-back events (bounded by prune())
        self.rolled_back_delivery: Dict[DeliveryKey, Tuple[int, int]] = {}
        self.rolled_back_sends: Dict[SendKey, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_send(
        self, sender: int, ssn: int, dst: int, deliveries_so_far: int
    ) -> Optional[int]:
        """Record a send; returns the previously recorded live context if
        this (sender, ssn, dst) was already recorded, else ``None``."""
        key = (sender, ssn, dst)
        previous = self.send_context.get(key)
        if previous is None:
            self.send_context[key] = deliveries_so_far
        return previous

    def record_delivery(
        self, receiver: int, rsn: int, sender: int, ssn: int
    ) -> Optional[Tuple[int, int]]:
        """Record a delivery; returns the previously recorded live
        ``(sender, ssn)`` for this slot if any, else ``None``."""
        key = (receiver, rsn)
        previous = self.delivery.get(key)
        if previous is None:
            self.delivery[key] = (sender, ssn)
        return previous

    def roll_back(self, node: int, final_count: int) -> List[DeliveryKey]:
        """Archive ``node``'s deliveries at rsn >= ``final_count`` and the
        sends they caused; returns the archived delivery keys."""
        stale_deliveries = [
            key for key in self.delivery if key[0] == node and key[1] >= final_count
        ]
        for key in stale_deliveries:
            self.rolled_back_delivery[key] = self.delivery.pop(key)
        stale_sends = [
            key
            for key, context in self.send_context.items()
            if key[0] == node and context > final_count
        ]
        for key in stale_sends:
            self.rolled_back_sends[key] = self.send_context.pop(key)
        return stale_deliveries

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def delivery_at(self, receiver: int, rsn: int) -> Optional[Tuple[int, int]]:
        """The (sender, ssn) delivered at this slot, live or archived."""
        found = self.delivery.get((receiver, rsn))
        if found is None:
            found = self.rolled_back_delivery.get((receiver, rsn))
        return found

    def context_of(self, sender: int, ssn: int, dst: int) -> Optional[int]:
        """The causal context of a send, live or archived."""
        context = self.send_context.get((sender, ssn, dst))
        if context is None:
            context = self.rolled_back_sends.get((sender, ssn, dst))
        return context

    def send_is_rolled_back(self, sender: int, ssn: int, dst: int) -> bool:
        """Whether this send exists only in rolled-back (orphan) form."""
        key = (sender, ssn, dst)
        return key in self.rolled_back_sends and key not in self.send_context

    def antecedents(self, event: DeliveryKey) -> Set[DeliveryKey]:
        """Backward closure of one delivery event in the happens-before DAG."""
        return self.closure((event,))

    def closure(self, events: Iterable[DeliveryKey]) -> Set[DeliveryKey]:
        """Backward closure of a set of delivery events: one walk, each
        reachable event visited once however many roots reach it."""
        seen: Set[DeliveryKey] = set()
        stack = list(events)
        while stack:
            node, rsn = stack.pop()
            if (node, rsn) in seen or rsn < 0:
                continue
            seen.add((node, rsn))
            if rsn > 0:
                stack.append((node, rsn - 1))
            delivered = self.delivery_at(node, rsn)
            if delivered is not None:
                sender, ssn = delivered
                context = self.context_of(sender, ssn, node)
                if context is not None and context > 0:
                    stack.append((sender, context - 1))
        return seen

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def prune(self, node: int, covered: int) -> int:
        """Drop archived entries of ``node`` below the GC horizon.

        Called when a durable checkpoint covers ``covered`` deliveries.
        An archived rolled-back delivery at rsn < ``covered`` is shadowed
        by the live replay re-record of the same slot (lookups prefer the
        live entry), and an archived send with context <= ``covered``
        points at a delivery that is now below the checkpoint and can
        never become an orphan -- so neither can contribute to a future
        violation.  Returns the number of entries dropped.
        """
        stale_deliveries = [
            key
            for key in self.rolled_back_delivery
            if key[0] == node and key[1] < covered
        ]
        for key in stale_deliveries:
            del self.rolled_back_delivery[key]
        stale_sends = [
            key
            for key, context in self.rolled_back_sends.items()
            if key[0] == node and context <= covered
        ]
        for key in stale_sends:
            del self.rolled_back_sends[key]
        return len(stale_deliveries) + len(stale_sends)

    def archived_entries(self) -> int:
        """Total rolled-back entries still held (tests/assertions)."""
        return len(self.rolled_back_delivery) + len(self.rolled_back_sends)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CausalGraph(deliveries={len(self.delivery)}, "
            f"sends={len(self.send_context)}, archived={self.archived_entries()})"
        )
