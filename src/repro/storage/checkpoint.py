"""Checkpoints on stable storage.

A :class:`Checkpoint` freezes the replayable part of a process: the
application state, the delivery counter (rsn high-water mark), and the
per-destination send sequence numbers.  :class:`CheckpointStore` persists
checkpoints through the :class:`~repro.storage.stable.StableStorage`
model, so saving and (crucially for the paper's argument) *restoring*
them costs realistic stable-storage time -- the dominant term in the
evaluation's measured ~5 s recovery.

A checkpoint is an immutable *image*: ``save`` serialises the
replayable state once, in C, and every read decodes its own fresh copy.
The store makes the only copy a checkpoint ever needs -- nothing the
process does later, and nothing a restore does, can alter a durable
line -- and checkpoint state must be plain data (:func:`encode_image`).

The store has two modes.  The default (flat) mode writes every
checkpoint as a full ``state_bytes`` image, exactly the seed's cost
model.  Incremental mode (enabled by
:class:`~repro.core.config.StorageRealismConfig`) writes copy-on-write
*delta* segments sized by the process's dirty bytes, forces a periodic
full segment to bound the chain a restart must read back, and reclaims
superseded segments once a new full lands.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.storage.stable import StableStorage


def encode_image(state: Any, what: str) -> bytes:
    """Serialise snapshot state into an immutable image, in one C pass.

    ``marshal`` preserves the type of everything it accepts -- ``None``,
    bools, ints, floats, strings, bytes and exact tuples, lists, dicts
    and sets of those -- so readers never re-normalise; anything else (a
    live object, a ``Determinant``) it refuses, here at the store
    boundary, and ``what`` names the snapshot in that error.

    An image is not canonical bytes: equal states can encode
    differently, for two reasons.  Marshal flags an object for
    back-reference when its reference count is above one, so a value
    also held elsewhere gets different flag bytes; and format version 4
    writes an interned string differently from an equal one that is
    not.  Compare decoded values, never images.  ``marshal.dumps(state,
    2)`` removes both effects but makes every image larger (a
    ``{"chain", "hops"}`` payload grows from 25 to 34 B).  ROADMAP item
    16(c) is the work of making images canonical.
    """
    try:
        return marshal.dumps(state)
    except ValueError as exc:
        raise TypeError(f"{what} holds state that is not plain data: {exc}") from None


#: every call builds a fresh object graph: two decodes never alias
decode_image = marshal.loads


@dataclass(frozen=True)
class Checkpoint:
    """An immutable snapshot of a process's replayable state.

    Attributes
    ----------
    node:
        Owning node id.
    delivered_count:
        Number of messages delivered when the snapshot was taken; equals
        the next rsn to be assigned.
    image:
        The encoded ``(app_state, extra)`` pair: application state and
        the protocol-specific replayable state riding along.  Not
        canonical bytes (see :func:`encode_image`): two checkpoints of
        equal states may hold different images.
    send_seqnos:
        Per-destination next send sequence number.
    delivered_ids:
        ``(sender, ssn)`` of every delivery the snapshot covers; outside
        the image because garbage collection reads it at every durable
        checkpoint and must not pay a full decode for it.
    state_bytes:
        Modelled size of the process image (the paper's processes were
        "about one Mbyte").
    checkpoint_id:
        Monotone id assigned by the store.
    taken_at:
        Virtual time the snapshot was taken.
    incremental:
        Whether this segment was written as a delta (incremental mode).
    charged_bytes:
        Bytes actually charged to the device for this segment (equals
        ``state_bytes`` for full segments, the clamped dirty size for
        deltas).
    """

    node: int
    delivered_count: int
    image: bytes
    send_seqnos: Dict[int, int]
    delivered_ids: FrozenSet[Tuple[int, int]]
    state_bytes: int
    checkpoint_id: int = 0
    taken_at: float = 0.0
    incremental: bool = False
    charged_bytes: int = 0

    def load(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Decode ``(app_state, extra)``; the caller owns the result."""
        return decode_image(self.image)

    @property
    def app_state(self) -> Dict[str, Any]:
        """A fresh decode of the application state."""
        return self.load()[0]

    @property
    def extra(self) -> Dict[str, Any]:
        """A fresh decode of the protocol-specific state."""
        return self.load()[1]


class CheckpointStore:
    """Persists one node's checkpoints through the stable-storage model.

    Only the latest recovery line is retained (the FBL protocols never
    need an earlier one: message logging replays everything after it).
    In flat mode that line is a single full image; in incremental mode
    it is a chain ``[full, delta, delta, ...]`` whose segments restore
    reads back one by one.
    """

    def __init__(
        self,
        storage: StableStorage,
        node: int,
        incremental: bool = False,
        full_every: int = 8,
        min_delta_bytes: int = 4_096,
        retain_history: bool = False,
    ) -> None:
        """Attach the store to ``storage``; see class docstring for modes.

        ``retain_history`` keeps every durable checkpoint instead of just
        the latest line.  Optimistic logging needs this: the newest
        checkpoint may capture state that *depends on rolled-back
        intervals* of a peer (an orphaned checkpoint), and restarting
        from it would only re-orphan the process -- the restart must be
        able to fall back to an earlier, non-orphaned line
        (:meth:`restore_line`).
        """
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every!r}")
        self.storage = storage
        self.node = node
        self.incremental = incremental
        self.full_every = full_every
        self.min_delta_bytes = min_delta_bytes
        self.retain_history = retain_history
        self._durable_history: List[Checkpoint] = []
        self._next_id = 1
        self._latest_durable: Optional[Checkpoint] = None
        # durable chain, full segment first (incremental mode only); the
        # device is FIFO and a crash aborts everything in flight, so the
        # durable chain is always a consistent prefix of what was written
        self._chain: List[Checkpoint] = []
        self._deltas_since_full = 0
        self._force_full = True  # first runtime checkpoint after boot/restore
        #: full/delta segment counters (accounting, zero-cost)
        self.full_segments = 0
        self.delta_segments = 0
        self.delta_bytes_written = 0
        self.full_bytes_written = 0

    # ------------------------------------------------------------------
    def _charge_for(self, dirty_bytes: Optional[int], state_bytes: int) -> int:
        """Delta segment size: dirty bytes clamped to [floor, full]."""
        if dirty_bytes is None:
            return state_bytes
        return max(self.min_delta_bytes, min(dirty_bytes, state_bytes))

    def _key(self, checkpoint: Checkpoint) -> str:
        """Flat mode overwrites one image; a chain names every segment."""
        if self.incremental:
            return f"checkpoint:{self.node}:{checkpoint.checkpoint_id}"
        return f"checkpoint:{self.node}"

    def save(
        self,
        delivered_count: int,
        app_state: Dict[str, Any],
        send_seqnos: Dict[int, int],
        state_bytes: int,
        taken_at: float,
        extra: Optional[Dict[str, Any]] = None,
        on_done: Optional[Callable[[Checkpoint], None]] = None,
        bootstrap: bool = False,
        dirty_bytes: Optional[int] = None,
        delivered_ids: Iterable[Tuple[int, int]] = (),
    ) -> Checkpoint:
        """Write a new checkpoint; ``on_done`` fires when it is durable.
        ``app_state`` and ``extra`` are encoded before this returns: pass
        live structures, no copy needed.

        ``bootstrap`` marks the time-zero checkpoint: the initial process
        image already sits on stable storage before the process launches,
        so it is durable immediately and costs no simulated I/O.

        ``dirty_bytes`` (incremental mode) is the modelled amount of
        state touched since the previous checkpoint; when the store
        decides to write a delta, that -- clamped to
        ``[min_delta_bytes, state_bytes]`` -- is the size charged to the
        device instead of the full image.  Flat mode always writes full.
        """
        charge = self._charge_for(dirty_bytes, state_bytes)
        # write a full segment in flat mode, when the chain budget is
        # spent, after a boot/restore (no baseline to delta against), or
        # when the process dirtied its whole image anyway
        full = (
            not self.incremental
            or bootstrap
            or self._force_full
            or self._deltas_since_full >= self.full_every - 1
            or charge >= state_bytes
        )
        charged = state_bytes if full else charge
        checkpoint = Checkpoint(
            node=self.node,
            delivered_count=delivered_count,
            image=encode_image(
                (app_state, extra or {}),
                f"checkpoint {self._next_id} of node {self.node}",
            ),
            send_seqnos=dict(send_seqnos),
            delivered_ids=frozenset(delivered_ids),
            state_bytes=state_bytes,
            checkpoint_id=self._next_id,
            taken_at=taken_at,
            incremental=not full,
            charged_bytes=charged,
        )
        self._next_id += 1
        # flat mode overwrites one image in place: segment counters and
        # the chain describe incremental mode only
        chained = self.incremental
        if chained and full:
            self._force_full = False
            self._deltas_since_full = 0
            self.full_segments += 1
            self.full_bytes_written += charged
        elif chained:
            self._deltas_since_full += 1
            self.delta_segments += 1
            self.delta_bytes_written += charged

        def done() -> None:
            """Publish the durable segment and notify the caller."""
            self._latest_durable = checkpoint
            if self.retain_history:
                self._durable_history.append(checkpoint)
            if chained and full:
                # the new full supersedes the old chain: reclaim it
                for old in self._chain:
                    self.storage.reclaim(self._key(old), old.charged_bytes)
                self._chain = [checkpoint]
            elif chained:
                self._chain.append(checkpoint)
            if on_done is not None:
                on_done(checkpoint)

        if bootstrap:
            self.storage.write_bootstrap(self._key(checkpoint), checkpoint)
            done()
        else:
            self.storage.write(self._key(checkpoint), checkpoint, charged, on_done=done)
        return checkpoint

    def restore(self, on_done: Callable[[Optional[Checkpoint]], None]) -> float:
        """Read the latest durable recovery line back (full state transfer).

        Flat mode reads one full image -- the "restoring its state may
        take tens of seconds" cost from the paper.  Incremental mode
        reads every segment of the durable chain (one device operation
        each, charged its segment size), which is why periodic full
        checkpoints bound recovery time.  ``on_done`` receives the last
        segment -- the newest state -- or ``None`` if nothing was ever
        saved.  Returns the modelled completion time.
        """
        if self.incremental and self._chain:
            # the next checkpoint after a restore has no dirty baseline
            self._force_full = True
            last = self._chain[-1]
            finish = 0.0
            for segment in self._chain:
                callback = (lambda _v, s=segment: None)
                if segment is last:
                    callback = lambda _v: on_done(last)  # noqa: E731
                finish = self.storage.read(self._key(segment), segment.charged_bytes, callback)
            return finish
        return self._read_full(self._latest_durable, on_done)

    def _read_full(self, checkpoint: Optional[Checkpoint], on_done: Callable) -> float:
        """One full-image read of ``checkpoint`` (zero bytes if ``None``: nothing saved)."""
        size = checkpoint.state_bytes if checkpoint is not None else 0
        return self.storage.read(
            f"checkpoint:{self.node}", size, lambda _value: on_done(checkpoint)
        )

    def restore_line(
        self, checkpoint: Checkpoint, on_done: Callable[[Checkpoint], None]
    ) -> float:
        """Re-read a specific retained checkpoint (orphan-aware restart).

        Used when the just-restored latest line turns out to depend on a
        peer's rolled-back state: the caller picks an earlier entry of
        :attr:`durable_history` and pays a second full state read for it.
        The chosen line becomes the store's latest -- every retained
        checkpoint after it is orphaned for good (recovery bounds only
        tighten), so a later crash restores the good line directly.
        """
        if not self.retain_history:
            raise ValueError("restore_line requires retain_history")
        self._latest_durable = checkpoint
        self._durable_history = [
            c for c in self._durable_history
            if c.checkpoint_id <= checkpoint.checkpoint_id
        ]
        return self._read_full(checkpoint, on_done)

    # ------------------------------------------------------------------
    @property
    def latest(self) -> Optional[Checkpoint]:
        """Latest durable checkpoint (zero-cost; for tests/assertions)."""
        return self._latest_durable

    @property
    def durable_history(self) -> List[Checkpoint]:
        """Every durable checkpoint, oldest first (``retain_history``)."""
        return list(self._durable_history)

    @property
    def chain_length(self) -> int:
        """Durable segments a restore must read (1 in flat mode)."""
        if self.incremental:
            return len(self._chain)
        return 1 if self._latest_durable is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cid = self._latest_durable.checkpoint_id if self._latest_durable else None
        return f"CheckpointStore(node={self.node}, latest={cid})"
