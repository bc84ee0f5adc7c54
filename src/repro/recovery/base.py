"""Recovery manager interface and shared helpers.

Every recovery **episode** runs under a *recovery epoch*: an integer
that strictly increases across a node's episodes (the non-blocking
manager uses the sequencer-granted ordinal, which is system-wide
monotone; the others use the incarnation counter, which is per-node
monotone).  All recovery control messages carry the sender's epoch --
:meth:`send_control` injects it automatically unless the caller tagged
the payload with the conversation's epoch explicitly (replies echo the
request's epoch).  Receivers reject messages from dead epochs with
:meth:`stale_epoch`, which traces every drop so the online sanitizer
(``recovery-epoch`` invariant) can audit the discipline: no control
message from epoch *e* may be acted on in epoch *e' > e*.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, List, Optional

from repro.causality.determinant import Determinant
from repro.net.network import Message, MessageKind
from repro.protocols.base import Depinfo, delivered_prefixes


def merge_depinfo(replies: Iterable[Depinfo]) -> Depinfo:
    """The leader's merge of depinfo replies: each determinant once (the
    first equal object met, by reference), with the OR of every host
    mask the replies gave it, sorted."""
    merged: Dict[Determinant, int] = {}
    for dets, masks in replies:
        for det, mask in zip(dets, masks):
            merged[det] = merged.get(det, 0) | mask
    dets = sorted(merged)
    return dets, [merged[det] for det in dets]


class RecoveryManager(ABC):
    """Per-node driver of the recovery algorithm.

    The node calls :meth:`begin_recovery` once its checkpoint (and any
    protocol stable state) has been reloaded after a crash; the manager
    runs its algorithm, eventually hands the gathered ``depinfo`` to
    ``node.protocol.begin_replay``, and the protocol calls back
    :meth:`on_replay_complete` when the pre-crash state is rebuilt.

    The same object also implements the *live-side* behaviour: how this
    node reacts to other processes' recoveries (this is where blocking
    and non-blocking differ).
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.node = None  # set by attach()
        #: recovery epoch of the current episode; 0 while not recovering
        self.epoch = 0
        #: control messages dropped because they came from a dead epoch
        self.stale_epoch_drops = 0
        #: highest epoch seen per peer (volatile; rebuilt after a crash)
        self._peer_epochs: Dict[int, int] = {}

    def attach(self, node: "Node") -> None:
        """Bind to the owning node.  Called once at system build."""
        self.node = node

    # -- helpers ----------------------------------------------------------
    @property
    def app_nodes(self) -> List[int]:
        """All application node ids (excludes the sequencer)."""
        return list(range(self.node.config.n))

    @property
    def peers(self) -> List[int]:
        """Every application node except this one."""
        return [p for p in self.app_nodes if p != self.node.node_id]

    def send_control(
        self,
        dst: int,
        mtype: str,
        payload: Optional[Dict[str, Any]] = None,
        body_bytes: int = 32,
    ) -> None:
        """Send one recovery-class control message.

        The sender's current recovery epoch rides along automatically;
        callers that answer on behalf of another episode (replies) set
        ``payload["epoch"]`` to the conversation's epoch themselves and
        the injected default does not override it.
        """
        node = self.node
        payload = payload if payload is not None else {}
        payload.setdefault("epoch", self.epoch)
        node.network.send(
            Message(
                src=node.node_id,
                dst=dst,
                kind=MessageKind.RECOVERY,
                mtype=mtype,
                payload=payload,
                body_bytes=body_bytes,
                incarnation=node.incarnation,
            )
        )

    def broadcast_control(
        self,
        dsts: Iterable[int],
        mtype: str,
        payload: Optional[Dict[str, Any]] = None,
        body_bytes: int = 32,
    ) -> None:
        """Send the same recovery control message to several peers."""
        for dst in sorted(set(dsts)):
            if dst != self.node.node_id:
                self.send_control(dst, mtype, dict(payload or {}), body_bytes)

    def announce_complete(self, dsts: Iterable[int]) -> None:
        """Broadcast ``recovery_complete`` to ``dsts``.  Each copy names
        ``through``: the last ssn of the contiguous prefix this node has
        delivered from its destination (-1 if none), so a live peer
        resends only what lies past it (8 B more than a bare
        announcement)."""
        node = self.node
        prefixes = delivered_prefixes(node.delivered_ids)
        for dst in sorted(set(dsts)):
            if dst != node.node_id:
                self.send_control(
                    dst, "recovery_complete",
                    {"incarnation": node.incarnation, "through": prefixes.get(dst, -1)},
                    body_bytes=24,
                )

    def trace(self, action: str, **details: Any) -> None:
        """Record a recovery-category trace event for this node."""
        node = self.node
        node.trace.record(node.sim.now, "recovery", node.node_id, action, **details)

    # -- recovery epochs --------------------------------------------------
    def begin_epoch(self, epoch: int) -> None:
        """Enter a new recovery epoch (traced for the sanitizer)."""
        self.epoch = epoch
        self.trace("epoch_begin", epoch=epoch)

    def stale_epoch(self, msg: Message, expected: Optional[int] = None) -> bool:
        """Reject a control message that belongs to a dead recovery epoch.

        With ``expected`` set, the message must carry exactly that epoch
        (the reply-checking form: a late reply to an earlier episode's
        request is dropped).  Without it, the message's epoch must not
        regress below the highest epoch this node has seen from the
        sender (the peer-tracking form).  Returns True when the message
        is stale; drops are counted and traced so the sanitizer's
        ``recovery-epoch`` invariant can audit them.
        """
        epoch = (msg.payload or {}).get("epoch", 0)
        if expected is not None:
            stale = epoch != expected
            want = expected
        else:
            want = self._peer_epochs.get(msg.src, 0)
            stale = epoch < want
            if not stale and epoch > want:
                self._peer_epochs[msg.src] = epoch
        if stale:
            self.stale_epoch_drops += 1
            self.trace(
                "stale_epoch_drop",
                src=msg.src,
                mtype=msg.mtype,
                epoch=epoch,
                expected=want,
            )
        return stale

    # -- lifecycle ----------------------------------------------------------
    def on_crash(self) -> None:
        """This node crashed; drop any in-progress recovery state.

        Subclasses extending this must call ``super().on_crash()``: the
        epoch of the dead episode and the volatile per-peer epoch view
        do not survive a crash.
        """
        self.epoch = 0
        self._peer_epochs.clear()

    @abstractmethod
    def begin_recovery(self) -> None:
        """Checkpoint restored; run the recovery algorithm."""

    def on_replay_complete(self) -> None:
        """The protocol finished replaying; default: done immediately."""
        self.node.complete_recovery()

    # -- events ----------------------------------------------------------
    def on_control(self, msg: Message) -> None:
        """A recovery-class control message arrived."""

    def on_peer_status(self, node_id: int, status: str) -> None:
        """The failure detector reported ``node_id`` as "down" or "up"."""

    # -- accounting ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Manager-specific counters for the run summary."""
        return {"stale_epoch_drops": self.stale_epoch_drops}
