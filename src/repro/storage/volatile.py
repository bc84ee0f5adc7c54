"""Volatile (crash-lossy) logs.

Everything here lives in a process's memory and is wiped by
:meth:`clear` when the process crashes.  The FBL protocols keep two
volatile structures: the *send log* (message data, kept by the sender for
replay) and the *determinant log* (receipt orders of its own and other
processes' deliveries, replicated via piggybacking).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Iterable, Iterator, List, Tuple, TypeVar

from repro.causality.determinant import Determinant

T = TypeVar("T")


class VolatileLog(Generic[T]):
    """A generic append-only in-memory log."""

    def __init__(self) -> None:
        self._entries: List[T] = []

    def append(self, entry: T) -> None:
        """Append ``entry`` to the log."""
        self._entries.append(entry)

    def entries(self) -> List[T]:
        """Snapshot of the log contents."""
        return list(self._entries)

    def clear(self) -> None:
        """Crash: all volatile contents are lost."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VolatileLog({len(self)} entries)"


#: one logged message: the payload (by reference) and its body size
Logged = Tuple[Dict[str, Any], int]


class SendLog:
    """Sender-side volatile log of outgoing message data.

    Per destination, ``ssn -> (payload, size)``; holds the application
    payload so the sender can retransmit during a receiver's recovery.
    This is the "log each message in the volatile store of its sender"
    half of the FBL idea.  The payload is kept by reference, not copied:
    nothing mutates an application payload once it is sent (a logged
    payload that changed would replay a different digest).
    """

    def __init__(self) -> None:
        self._by_dst: Dict[int, Dict[int, Logged]] = {}
        self.bytes_logged = 0
        #: cumulative bytes released by checkpoint-driven pruning
        self.bytes_pruned = 0
        #: cumulative entries released by checkpoint-driven pruning
        self.entries_pruned = 0

    def log(self, dst: int, ssn: int, payload: Dict[str, Any], size_bytes: int) -> None:
        """Record an outgoing message for possible replay."""
        logged = self._by_dst.get(dst)
        if logged is None:
            logged = self._by_dst[dst] = {}
        elif ssn in logged:
            return  # duplicate regeneration during replay
        logged[ssn] = (payload, size_bytes)
        self.bytes_logged += size_bytes

    def messages_for(self, dst: int) -> List[Tuple[int, Logged]]:
        """All logged ``(ssn, (payload, size))`` pairs destined for
        ``dst``, by ssn."""
        return sorted(self._by_dst.get(dst, {}).items())

    def prune_upto(self, dst: int, ssn: int) -> int:
        """Garbage-collect entries for ``dst`` with ssn <= the given bound.

        Returns how many entries were dropped.  Called when the receiver
        checkpoints (it will never need those messages replayed again).
        """
        logged = self._by_dst.get(dst, {})
        victims = [key for key in logged if key <= ssn]
        for key in victims:
            size = logged.pop(key)[1]
            self.bytes_logged -= size
            self.bytes_pruned += size
        self.entries_pruned += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Crash: the send log is volatile."""
        self._by_dst.clear()
        self.bytes_logged = 0

    # -- checkpoint support ------------------------------------------------
    def to_state(self) -> List[Tuple[int, int, Dict[str, Any], int]]:
        """Serializable snapshot: list of (dst, ssn, payload, size), the
        payloads live (the checkpoint store encodes it at once)."""
        return [
            (dst, ssn, payload, size)
            for dst in sorted(self._by_dst)
            for ssn, (payload, size) in sorted(self._by_dst[dst].items())
        ]

    def load_state(self, state: List[Tuple[int, int, Dict[str, Any], int]]) -> None:
        """Rebuild from a checkpointed snapshot."""
        self.clear()
        for dst, ssn, payload, size in state:
            self.log(dst, ssn, payload, size)

    def __len__(self) -> int:
        return sum(map(len, self._by_dst.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SendLog({len(self)} messages, {self.bytes_logged}B)"


def host_mask(hosts: Iterable[int]) -> int:
    """Encode a host set as a bitmask: host ``h`` is bit ``h + 1``, so the
    never-failing stable-storage host ``-1`` is bit 0."""
    mask = 0
    for host in hosts:
        mask |= 1 << (host + 1)
    return mask


#: ``(receiver, rsn)``: a determinant's ``delivery_id``
DeliveryId = Tuple[int, int]
#: a piggyback item: ``(delivery_id, determinant, host mask)``
Item = Tuple[DeliveryId, Determinant, int]


class DeterminantLog:
    """Volatile store of determinants known to a process.

    Besides the determinants themselves it tracks, per determinant, the
    set of hosts *known to have logged it* -- the information FBL uses to
    stop piggybacking once a determinant is replicated at ``f + 1``
    hosts.  Each set is one ``int`` (see :func:`host_mask`): merging is
    ``|``, the size is ``bit_count()``, and an int is not tracked by the
    cyclic collector, which the tens of thousands of long-lived host
    sets of a run otherwise keep busy.

    :meth:`stable` is the one definition of "replicated enough"; the two
    per-message loops (:meth:`spread`, :meth:`absorb`) inline it and keep
    the caller's *unstable cache* -- ``delivery_id -> determinant`` for
    exactly what :meth:`stable` rejects -- in step with the masks.
    """

    def __init__(self) -> None:
        self._dets: Dict[DeliveryId, Determinant] = {}
        self._masks: Dict[DeliveryId, int] = {}
        #: a determinant stored at more than ``f`` hosts is stable; the
        #: FBL family sets it once (untold, only the stable host counts)
        self.f: float = float("inf")
        #: cumulative determinants released by checkpoint-driven pruning
        self.entries_pruned = 0

    # ------------------------------------------------------------------
    def merge(self, det: Determinant, mask: int) -> int:
        """Record ``det`` and OR ``mask`` into its host set; returns the
        merged mask, so per-message callers never look it up again."""
        key = det.delivery_id
        known = self._masks.get(key)
        if known is None:
            self._dets[key] = det
            known = 0
        self._masks[key] = known = known | mask
        return known

    def add(self, det: Determinant, logged_at: Iterable[int] = ()) -> bool:
        """Record ``det``; merge ``logged_at`` host knowledge.

        Returns True if the determinant was new to this log.
        """
        new = det.delivery_id not in self._dets
        self.merge(det, host_mask(logged_at))
        return new

    def note_logged_at(self, det: Determinant, host: int) -> int:
        """Record that ``host`` now stores ``det``; returns the merged mask."""
        return self.merge(det, 1 << (host + 1))

    def mask(self, det: Determinant) -> int:
        """Bitmask of the hosts known to store ``det`` (0 if unknown)."""
        return self._masks.get(det.delivery_id, 0)

    def logged_at(self, det: Determinant) -> frozenset:
        """Hosts known to store ``det`` (possibly empty), decoded."""
        mask = self.mask(det)
        return frozenset(
            bit - 1 for bit in range(mask.bit_length()) if mask >> bit & 1
        )

    # ------------------------------------------------------------------
    def determinants(self) -> List[Determinant]:
        """Every stored determinant, deterministically ordered."""
        return sorted(self._dets.values())

    def stable(self, mask: int) -> bool:
        """Is a determinant with host set ``mask`` replicated enough: at
        the stable-storage host (bit 0) or at more than ``f`` hosts?"""
        return bool(mask & 1) or mask.bit_count() > self.f

    def spread(
        self, dst: int, unstable: Dict[DeliveryId, Determinant], me: int,
        on_stable: Callable[[Determinant, bool], None],
    ) -> List[Item]:
        """One pass for a message to ``dst``: the ``(key, determinant,
        mask)`` of every cached determinant ``dst`` does not store yet, in
        key order, each then counted as stored there (reliable FIFO
        channel: it will be, on receipt) and, if that made it stable,
        uncached as in :meth:`absorb`.  ``key`` is the cache's own
        delivery-id tuple, so every log downstream shares it."""
        items = []
        masks, f, dst_bit = self._masks, self.f, 1 << (dst + 1)
        for key in sorted(unstable):
            mask = masks[key]
            if mask & dst_bit:
                continue  # dst already stores it; no point re-sending
            det = unstable[key]
            items.append((key, det, mask))
            masks[key] = mask = mask | dst_bit
            if mask & 1 or mask.bit_count() > f:
                del unstable[key]
                if key[0] == me:
                    on_stable(det, True)
        return items

    def absorb(
        self, items: Iterable[Item], hosts: Iterable[int],
        unstable: Dict[DeliveryId, Determinant], me: int,
        on_stable: Callable[[Determinant, bool], None],
    ) -> None:
        """One pass over ``(key, determinant, mask)`` items (``key`` is the
        determinant's ``delivery_id``, stored as given): merge ``mask`` and
        ``hosts`` into each host set, then cache the determinant in
        ``unstable`` or, if it is stable (:meth:`stable`, inline), uncache
        it and, for one of ``me``'s own deliveries, call ``on_stable(det,
        was_cached)`` in place, before the next item is looked at."""
        masks, f, seen_at = self._masks, self.f, 0
        for host in hosts:
            seen_at |= 1 << (host + 1)
        for key, det, mask in items:
            known = masks.get(key)
            if known is None:
                self._dets[key] = det
                known = 0
            masks[key] = mask = known | mask | seen_at
            if not (mask & 1 or mask.bit_count() > f):
                unstable[key] = det
            elif key[0] == me:
                on_stable(det, unstable.pop(key, None) is not None)
            elif key in unstable:
                del unstable[key]

    def for_receiver(self, receiver: int) -> Dict[int, Determinant]:
        """``rsn -> determinant`` for one receiver."""
        return {
            rsn: det for (recv, rsn), det in self._dets.items() if recv == receiver
        }

    def __contains__(self, det: Determinant) -> bool:
        return self._dets.get(det.delivery_id) == det

    def drop_receiver_prefix(self, receiver: int, before_rsn: int) -> int:
        """Garbage-collect determinants of ``receiver``'s deliveries with
        rsn < ``before_rsn`` (covered by its durable checkpoint, so never
        needed for replay again).  Returns how many were dropped."""
        victims = [
            key for key in self._dets
            if key[0] == receiver and key[1] < before_rsn
        ]
        for key in victims:
            del self._dets[key]
            del self._masks[key]
        self.entries_pruned += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Crash: all volatile contents are lost."""
        self._dets.clear()
        self._masks.clear()

    # -- checkpoint support ------------------------------------------------
    def to_state(self) -> List[Tuple[Tuple[int, int, int, int], int]]:
        """Serializable snapshot: list of (det tuple, host mask)."""
        return [
            (det.to_tuple(), self._masks[key])
            for key, det in sorted(self._dets.items())
        ]

    def load_state(self, state: List[Tuple[Tuple[int, int, int, int], int]]) -> None:
        """Rebuild from a checkpointed snapshot."""
        self.clear()
        for det_tuple, mask in state:
            self.merge(Determinant.from_tuple(det_tuple), mask)

    def __len__(self) -> int:
        return len(self._dets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterminantLog({len(self)} determinants)"
