"""The causal record of a run.

Delivery events ``(node, rsn)`` connected by program-order edges
``(x, k-1) -> (x, k)`` and, per message, an edge from the sender's
latest delivery before the send to the delivery of that message.
A run keeps one :class:`CausalGraph`, the
:class:`~repro.core.oracle.ConsistencyOracle`'s, which writes it and
judges the run's one orphan rule and replay determinism against it; the
:class:`~repro.sanitizer.monitor.Sanitizer` only reads it (the
pessimistic ``commit-order`` check looks up deliveries).

Rolled-back sends and deliveries are *archived* rather than dropped, so
the orphan rule can still traverse the causal edges they induced.  The
archives are bounded by :meth:`CausalGraph.prune`, driven by the same GC
horizon the protocols use (a durable checkpoint covering ``covered``
deliveries): archived entries below the horizon are either shadowed by a
live replay re-record or causally below state that can never roll back,
so dropping them loses no detection power.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, DefaultDict, Dict, Hashable, Iterable, List, Optional, Tuple

#: a delivery slot: ``(receiver, rsn)``
DeliveryKey = Tuple[int, int]
#: a directed application send: ``(sender, ssn, dst)``
SendKey = Tuple[int, int, int]
#: per owner, a list indexed by sequence number (``None``: nothing there)
Rows = DefaultDict[Hashable, List[Any]]


def slot(rows: Rows, owner: Hashable, index: int) -> Any:
    """``rows[owner][index]``, or ``None`` when there is no such entry."""
    row = rows.get(owner, ())
    return row[index] if 0 <= index < len(row) else None


def claim(row: List[Any], index: int, value: Any) -> Any:
    """Set ``row[index]`` to ``value`` unless an entry is already there
    (a gap is padded with ``None``); returns that entry, or ``None`` if
    ``value`` was stored.  Callers append the next entry themselves."""
    if index < len(row):
        previous = row[index]
        if previous is None:
            row[index] = value
        return previous
    row.extend([None] * (index - len(row)))
    row.append(value)
    return None


class CausalGraph:
    """The causal record of one run: sends, deliveries, and rollbacks.

    Pure bookkeeping -- recording methods report what was already there
    (so callers can flag divergence) but never judge.  The live record is
    rows indexed by sequence number, one per node (deliveries, by rsn)
    and one per directed channel (send contexts, by ssn), so recording
    builds no key; a delivery's ``(sender, ssn)`` is the caller's tuple,
    stored as given.  The rollback archives stay dicts of tuples.
    """

    def __init__(self) -> None:
        #: receiver -> [(sender, ssn) delivered at each rsn]
        self.deliveries: Rows = defaultdict(list)
        #: (sender, dst) -> [deliveries the sender had made when it sent each ssn]
        self.contexts: Rows = defaultdict(list)
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
        row = self.contexts[(sender, dst)]
        if ssn == len(row):  # the channel's next send
            row.append(deliveries_so_far)
            return None
        return claim(row, ssn, deliveries_so_far)

    def record_delivery(
        self, receiver: int, rsn: int, message_id: Tuple[int, int]
    ) -> Optional[Tuple[int, int]]:
        """Record the delivery of ``message_id = (sender, ssn)``; returns
        the previously recorded live ``(sender, ssn)`` for this slot if
        any, else ``None``."""
        row = self.deliveries[receiver]
        if rsn == len(row):  # the receiver's next delivery
            row.append(message_id)
            return None
        return claim(row, rsn, message_id)

    def roll_back(
        self, node: int, final_count: int, sends: Optional[Dict[int, int]] = None
    ) -> List[DeliveryKey]:
        """Archive ``node``'s deliveries at rsn >= ``final_count`` and the
        sends they caused -- and, given ``sends``, the per-destination send
        counts a snapshot restored, every send past them; returns the
        archived delivery keys."""
        row = self.deliveries.get(node, [])
        stale_deliveries = [
            (node, rsn) for rsn in range(final_count, len(row)) if row[rsn] is not None
        ]
        for key in stale_deliveries:
            self.rolled_back_delivery[key] = row[key[1]]
        del row[final_count:]
        for (sender, dst), contexts in self.contexts.items():
            if sender != node:
                continue
            kept = len(contexts) if sends is None else sends.get(dst, 0)
            for ssn, context in enumerate(contexts):
                if context is not None and (context > final_count or ssn >= kept):
                    self.rolled_back_sends[(sender, ssn, dst)] = context
                    contexts[ssn] = None
        return stale_deliveries

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def delivery_at(self, receiver: int, rsn: int) -> Optional[Tuple[int, int]]:
        """The (sender, ssn) delivered at this slot, live or archived."""
        row = self.deliveries.get(receiver, ())  # slot(), inline
        found = row[rsn] if 0 <= rsn < len(row) else None
        if found is None:
            found = self.rolled_back_delivery.get((receiver, rsn))
        return found

    def context_of(self, sender: int, ssn: int, dst: int) -> Optional[int]:
        """The causal context of a send, live or archived."""
        row = self.contexts.get((sender, dst), ())  # slot(), inline, as above
        context = row[ssn] if 0 <= ssn < len(row) else None
        if context is None:
            context = self.rolled_back_sends.get((sender, ssn, dst))
        return context

    def send_is_rolled_back(self, sender: int, ssn: int, dst: int) -> bool:
        """Whether this send exists only in rolled-back (orphan) form."""
        return (
            (sender, ssn, dst) in self.rolled_back_sends
            and slot(self.contexts, (sender, dst), ssn) is None
        )

    def reach(self, events: Iterable[DeliveryKey]) -> Dict[int, int]:
        """Backward closure of delivery events in the happens-before DAG,
        as ``node -> highest rsn reached``: program order makes the
        closure a prefix ``0..rsn`` per node, so each reached delivery's
        message edge is walked once, however many roots reach it."""
        top: Dict[int, int] = {}
        for node, rsn in events:
            if rsn > top.get(node, -1):
                top[node] = rsn
        walked: Dict[int, int] = {}  # node -> rsns whose edges were walked
        pending = list(top)
        # delivery_at() and context_of(), inline: the oracle walks every
        # reached delivery once per recovery that lost a slot
        contexts, archived = self.contexts, self.rolled_back_sends
        while pending:
            node = pending.pop()
            upto = top[node]
            row = self.deliveries.get(node, ())
            for rsn in range(walked.get(node, 0), upto + 1):
                delivered = row[rsn] if rsn < len(row) else None
                if delivered is None:
                    delivered = self.rolled_back_delivery.get((node, rsn))
                    if delivered is None:
                        continue
                sender, ssn = delivered
                sent = contexts.get((sender, node), ())
                context = sent[ssn] if 0 <= ssn < len(sent) else None
                if context is None:
                    context = archived.get((sender, ssn, node))
                if context is not None and context - 1 > top.get(sender, -1):
                    top[sender] = context - 1
                    pending.append(sender)
            walked[node] = upto + 1
        return top

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
            f"CausalGraph(receivers={len(self.deliveries)}, "
            f"archived={self.archived_entries()})"
        )
