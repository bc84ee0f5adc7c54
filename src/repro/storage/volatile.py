"""Volatile (crash-lossy) logs.

Everything here lives in a process's memory and is wiped by
:meth:`clear` when the process crashes.  The FBL protocols keep two
volatile structures: the *send log* (message data, kept by the sender for
replay) and the *determinant log* (receipt orders of its own and other
processes' deliveries, replicated via piggybacking).

Both keep their entries in *rows*: per owner (a destination, a receiver)
one ``[base, first, second]`` list whose two columns hold the entry for
sequence number ``base + i`` at index ``i``, ``None`` in both where there
is none.  Recording an entry builds no key: the per-message paths do one
bounds check and a store (a row grows in chunks, :func:`_fit`), and
pruning a prefix moves ``base`` up (:func:`_drop_prefix`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.causality.determinant import Determinant
from repro.storage.checkpoint import decode_image, encode_image

#: ``[base, first column, second column]``, both columns indexed by
#: ``seq - base``; an owner has a row while it holds an entry
Row = List[Any]
#: slots a new row starts with, from its first entry's sequence number on
_START = 8


def _fit(row: Row, seq: int) -> int:
    """Make room in ``row`` for sequence number ``seq``; returns its index.

    Below ``base`` (an entry recorded again under a pruned prefix) both
    columns are padded at the front and ``base`` moves down; past the end
    they grow by an eighth more than needed, so an append lands here once
    every few entries, not every time."""
    base, first, second = row
    index = seq - base
    if index < 0:
        first[:0] = second[:0] = [None] * -index
        row[0] = seq
        return 0
    pad = [None] * (index + 4 - len(first) + (index >> 3))
    first += pad
    second += pad
    return index


def _slots(rows: Dict[int, Row], owners: Iterable[int]) -> List[Tuple[int, int, Any, Any]]:
    """``(owner, seq, first, second)`` for every entry of the named owners'
    rows, owner by owner in the order given, each by sequence number."""
    return [
        (owner, base + index, a, b)
        for owner in owners if owner in rows
        for base, first, second in (rows[owner],)
        for index, (a, b) in enumerate(zip(first, second))
        if b is not None
    ]


def _drop_prefix(rows: Dict[int, Row], owner: int, seq: int) -> List[Any]:
    """Drop ``owner``'s entries below sequence number ``seq``; returns the
    second-column values of the entries dropped.  A row cut to nothing
    goes, so the next entry starts a row at its own sequence number."""
    row = rows.get(owner)
    if row is None or seq <= row[0]:
        return []
    base, first, second = row
    cut = seq - base
    dropped = [value for value in second[:cut] if value is not None]
    if cut < len(second):
        del first[:cut], second[:cut]
        row[0] = seq
    else:
        del rows[owner]
    return dropped


#: one logged message as read back: a fresh decode of its payload, and
#: its body size
Logged = Tuple[Dict[str, Any], int]


class SendLog:
    """Sender-side volatile log of outgoing message data.

    Per destination, a row of payload images and a row of body sizes
    indexed by ssn; holds the application payload so the sender can
    retransmit during a receiver's recovery.  This is the "log each
    message in the volatile store of its sender" half of the FBL idea.
    Nothing releases an entry on the failure-free path but a
    checkpoint, so the log is kept packed: each payload is stored as its
    encoded image (:func:`~repro.storage.checkpoint.encode_image`, the
    checkpoint store's codec), and every read (:meth:`messages_for`,
    :meth:`to_state`) decodes a fresh, equal dict.  A payload is thereby
    never mutated after it is sent: changing the sender's dict once it
    is logged does not change what is replayed.
    """

    def __init__(self) -> None:
        #: dst -> [base, payload images, sizes]
        self._rows: Dict[int, Row] = {}
        #: entries held (a row scan would cost every summary a pass)
        self._entries = 0
        self.bytes_logged = 0
        #: cumulative bytes released by checkpoint-driven pruning
        self.bytes_pruned = 0
        #: cumulative entries released by checkpoint-driven pruning
        self.entries_pruned = 0

    def log(self, dst: int, ssn: int, payload: Dict[str, Any], size_bytes: int) -> None:
        """Record an outgoing message for possible replay; ``payload`` is
        encoded at once (plain data only, see ``encode_image``)."""
        row = self._rows.get(dst)
        if row is None:
            row = self._rows[dst] = [ssn, [None] * _START, [None] * _START]
        base, images, sizes = row
        index = ssn - base
        if not 0 <= index < len(sizes):
            index = _fit(row, ssn)
        elif sizes[index] is not None:
            return  # duplicate regeneration during replay
        images[index] = encode_image(payload, "a sent payload")
        sizes[index] = size_bytes
        self._entries += 1
        self.bytes_logged += size_bytes

    def messages_for(self, dst: int, after: int = -1) -> List[Tuple[int, Logged]]:
        """The logged ``(ssn, (payload, size))`` pairs destined for
        ``dst`` with ssn above ``after``, by ssn, each payload freshly
        decoded."""
        return [
            (ssn, (decode_image(image), size))
            for _, ssn, image, size in _slots(self._rows, (dst,))
            if ssn > after
        ]

    def prune_upto(self, dst: int, ssn: int) -> int:
        """Garbage-collect entries for ``dst`` with ssn <= the given bound.

        Returns how many entries were dropped.  Called when the receiver
        checkpoints (it will never need those messages replayed again).
        """
        sizes = _drop_prefix(self._rows, dst, ssn + 1)
        freed = sum(sizes)
        self._entries -= len(sizes)
        self.bytes_logged -= freed
        self.bytes_pruned += freed
        self.entries_pruned += len(sizes)
        return len(sizes)

    def clear(self) -> None:
        """Crash: the send log is volatile."""
        self._rows.clear()
        self._entries = 0
        self.bytes_logged = 0

    # -- checkpoint support ------------------------------------------------
    def to_state(self) -> List[Tuple[int, int, Dict[str, Any], int]]:
        """Serializable snapshot: list of (dst, ssn, payload, size), each
        payload freshly decoded (the checkpoint store encodes it again)."""
        return [
            (dst, ssn, decode_image(image), size)
            for dst, ssn, image, size in _slots(self._rows, sorted(self._rows))
        ]

    def load_state(self, state: List[Tuple[int, int, Dict[str, Any], int]]) -> None:
        """Rebuild from a checkpointed snapshot."""
        self.clear()
        for dst, ssn, payload, size in state:
            self.log(dst, ssn, payload, size)

    def __len__(self) -> int:
        return self._entries

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

    Per receiver, a row of determinants and a row of host masks, indexed
    by rsn.  A slot belongs to the first determinant logged in it: a
    different determinant for a filled slot merges its hosts into the
    slot's mask but is not stored (``det in log`` is False for it).  The
    slot code is written out on every per-determinant path, not called.

    :meth:`stable` is the one definition of "replicated enough"; the two
    per-message loops (:meth:`spread`, :meth:`absorb`) inline it and keep
    the caller's *unstable cache* -- ``delivery_id -> determinant`` for
    exactly what :meth:`stable` rejects -- in step with the masks.
    """

    def __init__(self) -> None:
        #: receiver -> [base, determinants, host masks]
        self._rows: Dict[int, Row] = {}
        #: entries held (a row scan would cost every summary a pass)
        self._entries = 0
        #: a determinant stored at more than ``f`` hosts is stable; the
        #: FBL family sets it once (untold, only the stable host counts)
        self.f: float = float("inf")
        #: cumulative determinants released by checkpoint-driven pruning
        self.entries_pruned = 0

    # ------------------------------------------------------------------
    def merge(self, det: Determinant, mask: int) -> int:
        """Record ``det`` and OR ``mask`` into its host set; returns the
        merged mask, so per-message callers never look it up again."""
        _, _, receiver, rsn = det
        row = self._rows.get(receiver)
        if row is None:
            row = self._rows[receiver] = [rsn, [None] * _START, [None] * _START]
        base, dets, masks = row
        index = rsn - base
        if not 0 <= index < len(masks):
            index = _fit(row, rsn)
        known = masks[index]
        if known is None:
            dets[index] = det
            self._entries += 1
            known = 0
        masks[index] = known = known | mask
        return known

    def add(self, det: Determinant, logged_at: Iterable[int] = ()) -> bool:
        """Record ``det``; merge ``logged_at`` host knowledge.

        Returns True if the determinant's slot was empty in this log.
        """
        _, _, receiver, rsn = det
        row = self._rows.get(receiver)
        if row is None:
            row = self._rows[receiver] = [rsn, [None] * _START, [None] * _START]
        base, dets, masks = row
        index = rsn - base
        if not 0 <= index < len(masks):
            index = _fit(row, rsn)
        known = masks[index]
        new = known is None
        if new:
            dets[index] = det
            self._entries += 1
            known = 0
        masks[index] = known | host_mask(logged_at)
        return new

    def note_logged_at(self, det: Determinant, host: int) -> int:
        """Record that ``host`` now stores ``det``; returns the merged mask."""
        return self.merge(det, 1 << (host + 1))

    def mask(self, det: Determinant) -> int:
        """Bitmask of the hosts known to store ``det`` (0 if unknown)."""
        _, _, receiver, rsn = det
        row = self._rows.get(receiver)
        if row is None:
            return 0
        base, _, masks = row
        index = rsn - base
        if not 0 <= index < len(masks):
            return 0
        return masks[index] or 0

    def logged_at(self, det: Determinant) -> frozenset:
        """Hosts known to store ``det`` (possibly empty), decoded."""
        mask = self.mask(det)
        return frozenset(
            bit - 1 for bit in range(mask.bit_length()) if mask >> bit & 1
        )

    # ------------------------------------------------------------------
    def determinants(self) -> List[Determinant]:
        """Every stored determinant, deterministically ordered."""
        return sorted([
            det for _, dets, _ in self._rows.values() for det in dets if det is not None
        ])

    def depinfo(self, want: int) -> Tuple[List[Determinant], List[int]]:
        """The stored determinants a recovery of the hosts in ``want`` (a
        host mask, see :func:`host_mask`) can use: those whose receiver,
        or a host their mask counts, is in ``want`` -- ``(mask | 2 <<
        receiver) & want``.  Ordered as :meth:`determinants` orders them,
        with each one's host mask at the same index: two parallel lists,
        so a depinfo reply carries the log's own objects and builds no
        object per entry."""
        held = {
            det: mask
            for receiver, (_, dets, masks) in self._rows.items()
            for det, mask in zip(dets, masks)
            if det is not None and (mask | 2 << receiver) & want
        }
        dets = sorted(held)
        return dets, [held[det] for det in dets]

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
        key order, each then counted as stored there and, if that made it
        stable, uncached as in :meth:`absorb`.  ``key`` is the cache's own
        delivery-id tuple, so every log downstream shares it.  ``dst`` is
        counted at send, not on receipt: see the FBL module docstring."""
        items = []
        rows, f, dst_bit = self._rows, self.f, 1 << (dst + 1)
        for key in sorted(unstable):
            receiver, rsn = key
            base, _, masks = rows[receiver]
            index = rsn - base
            mask = masks[index]
            if mask & dst_bit:
                continue  # dst already stores it; no point re-sending
            det = unstable[key]
            items.append((key, det, mask))
            masks[index] = mask = mask | dst_bit
            if mask & 1 or mask.bit_count() > f:
                del unstable[key]
                if receiver == me:
                    on_stable(det, True)
        return items

    def absorb(
        self, items: Iterable[Item], hosts: Iterable[int],
        unstable: Dict[DeliveryId, Determinant], me: int,
        on_stable: Callable[[Determinant, bool], None],
    ) -> None:
        """One pass over ``(key, determinant, mask)`` items (``key`` is the
        determinant's ``delivery_id``): merge ``mask`` and ``hosts`` into
        each host set, then cache the determinant in ``unstable`` or, if
        it is stable (:meth:`stable`, inline), uncache it and, for one of
        ``me``'s own deliveries, call ``on_stable(det, was_cached)`` in
        place, before the next item is looked at."""
        rows, f, seen_at, added = self._rows, self.f, 0, 0
        for host in hosts:
            seen_at |= 1 << (host + 1)
        for key, det, mask in items:
            receiver, rsn = key
            row = rows.get(receiver)
            if row is None:
                row = rows[receiver] = [rsn, [None] * _START, [None] * _START]
            base, dets, masks = row
            index = rsn - base
            if index < 0:
                index = _fit(row, rsn)
            try:  # on this loop, cheaper than checking the end every time
                known = masks[index]
            except IndexError:
                _fit(row, rsn)
                known = None
            if known is None:
                dets[index] = det
                added += 1
                known = 0
            masks[index] = mask = known | mask | seen_at
            if not (mask & 1 or mask.bit_count() > f):
                unstable[key] = det
            elif receiver == me:
                on_stable(det, unstable.pop(key, None) is not None)
            elif key in unstable:
                del unstable[key]
        self._entries += added

    def for_receiver(self, receiver: int) -> Dict[int, Determinant]:
        """``rsn -> determinant`` for one receiver."""
        return {rsn: det for _, rsn, det, _ in _slots(self._rows, (receiver,))}

    def __contains__(self, det: Determinant) -> bool:
        _, _, receiver, rsn = det
        row = self._rows.get(receiver)
        if row is None:
            return False
        base, dets, _ = row
        index = rsn - base
        return 0 <= index < len(dets) and dets[index] == det

    def drop_receiver_prefix(self, receiver: int, before_rsn: int) -> int:
        """Garbage-collect determinants of ``receiver``'s deliveries with
        rsn < ``before_rsn`` (covered by its durable checkpoint, so never
        needed for replay again).  Returns how many were dropped."""
        dropped = len(_drop_prefix(self._rows, receiver, before_rsn))
        self._entries -= dropped
        self.entries_pruned += dropped
        return dropped

    def clear(self) -> None:
        """Crash: all volatile contents are lost."""
        self._rows.clear()
        self._entries = 0

    # -- checkpoint support ------------------------------------------------
    def to_state(self) -> List[Tuple[Tuple[int, int, int, int], int]]:
        """Serializable snapshot: list of (plain det tuple, host mask), by
        ``(receiver, rsn)``; a checkpoint image holds plain data only."""
        return [
            (tuple(det), mask)
            for _, _, det, mask in _slots(self._rows, sorted(self._rows))
        ]

    def load_state(self, state: List[Tuple[Tuple[int, int, int, int], int]]) -> None:
        """Rebuild from a checkpointed snapshot (each determinant is
        built, and validated, again)."""
        self.clear()
        for item, mask in state:
            self.merge(Determinant(*item), mask)

    def __len__(self) -> int:
        return self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterminantLog({len(self)} determinants)"
