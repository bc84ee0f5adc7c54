"""Pessimistic (receiver-based, synchronous) message logging.

The classic high-overhead/low-complexity point in the design space
(e.g. Borg et al.'s "fault tolerance under UNIX", Powell & Presotto's
Publishing): the receiver *synchronously* logs every message -- data and
receipt order -- to stable storage **before delivering it**.  Nothing
that influenced the application state can ever be lost, so:

* recovery is purely local (restore checkpoint, replay own stable log);
* no live process participates in recovery at all;
* but every delivery pays a stable-storage write on its critical path,
  the failure-free cost the paper's Section 6 attributes to pessimistic
  protocols.

Senders keep unacknowledged messages in a volatile send log and
retransmit them when the receiver announces its recovery, covering
messages that were in flight (received but not yet durably logged) at
the crash.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.causality.determinant import Determinant
from repro.net.network import Message, MessageKind
from repro.protocols.base import LogBasedProtocol
from repro.storage.checkpoint import decode_image, encode_image

#: Modelled on-disk size of a log record beyond the message body.
LOG_RECORD_OVERHEAD = 48


class PessimisticLogging(LogBasedProtocol):
    """Synchronous receiver-based logging with local recovery."""

    name = "pessimistic"
    supported_recovery = ("local",)
    requests_retransmissions = False

    def __init__(self) -> None:
        super().__init__()
        self._next_log_rsn = 0
        self._acked: Set[Tuple[int, int]] = set()
        self._pending_log: Set[Tuple[int, int]] = set()
        self.sync_log_writes = 0

    def _log_name(self) -> str:
        return f"msglog:{self.node.node_id}"

    # ------------------------------------------------------------------
    # receive path: log synchronously, deliver on completion
    # ------------------------------------------------------------------
    def on_app_message(self, msg: Message) -> None:
        key = (msg.src, msg.ssn)
        if key in self.node.delivered_ids or key in self._pending_log:
            return  # duplicate or already being logged
        self._log_then_deliver(msg.src, msg.ssn, msg.payload["data"], msg.body_bytes)

    def _log_then_deliver(
        self, sender: int, ssn: int, data: Dict[str, Any], body_bytes: int
    ) -> None:
        node = self.node
        rsn = self._next_log_rsn
        self._next_log_rsn += 1
        det = Determinant(sender, ssn, node.node_id, rsn)
        self._pending_log.add((sender, ssn))
        self.sync_log_writes += 1
        epoch = node.crash_count

        def logged() -> None:
            if node.crash_count != epoch or not node.is_live:
                return  # crashed while the write was in flight
            # the record is durable; only now may the delivery happen
            node.trace.record(
                node.sim.now, "protocol", node.node_id, "log_commit",
                sender=sender, ssn=ssn, rsn=det.rsn,
            )
            self._pending_log.discard((sender, ssn))
            self._send_msg_ack(sender, ssn)
            self._deliver(sender, ssn, data, None, det)

        # The synchronous write: the delivery waits for stable storage.
        # The record keeps the payload's image, decoded on read-back.
        node.storage.log_append(
            self._log_name(),
            (det, encode_image(data, "a logged payload"), body_bytes),
            body_bytes + LOG_RECORD_OVERHEAD,
            on_done=logged,
            stall_node=node.node_id,
        )

    def _send_msg_ack(self, sender: int, ssn: int) -> None:
        node = self.node
        node.network.send(
            Message(
                src=node.node_id,
                dst=sender,
                kind=MessageKind.PROTOCOL,
                mtype="msg_ack",
                payload={"ssn": ssn},
                body_bytes=8,
                incarnation=node.incarnation,
            )
        )

    def on_app_message_during_recovery(self, msg: Message) -> None:
        # All replay data is local; incoming traffic is new and must wait
        # until the local replay rebuilds the pre-crash state.
        self._buffer_message(msg.src, msg.ssn, msg.payload["data"])

    def on_protocol_message(self, msg: Message) -> None:
        if msg.mtype == "msg_ack":
            self._acked.add((msg.src, msg.payload["ssn"]))
            return
        if msg.mtype == "retransmit_data":
            # treat like a fresh app message: it must be logged first
            key = (msg.src, msg.payload["ssn"])
            if self.node.is_recovering:
                self._buffer_message(msg.src, msg.payload["ssn"], msg.payload["data"])
                return
            if key in self.node.delivered_ids or key in self._pending_log:
                return
            self._log_then_deliver(
                msg.src, msg.payload["ssn"], msg.payload["data"], msg.body_bytes
            )
            return
        super().on_protocol_message(msg)

    # ------------------------------------------------------------------
    # crash / restore
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self._next_log_rsn = 0
        self._acked.clear()
        self._pending_log.clear()

    def on_checkpoint(self, checkpoint: "Checkpoint") -> None:
        """Compact the message log: entries the checkpoint covers are
        never replayed again, so the restore read shrinks."""
        count = checkpoint.delivered_count
        if count == 0:
            return
        dropped = self.node.storage.log_truncate_head(
            self._log_name(),
            lambda entry: entry[0].rsn >= count,
            size_of=lambda entry: entry[2] + LOG_RECORD_OVERHEAD,
        )
        if dropped:
            self.node.trace.record(
                self.node.sim.now, "gc", self.node.node_id, "log_compacted",
                dropped=dropped, covered=count,
            )

    def checkpoint_extra(self) -> Dict[str, Any]:
        return {"send_log": self.send_log.to_state(), "acked": self._acked}

    def on_restore(self, checkpoint: "Checkpoint", state: Dict[str, Any]) -> None:
        self.send_log.load_state(state["send_log"])
        self._acked = state["acked"]

    def restore_stable(self, on_done) -> None:
        """Read the whole message log back; it contains the full replay."""

        def loaded(entries: list) -> None:
            for det, image, _body in entries:
                if det.rsn >= self.node.app.delivered_count:
                    self.det_log.add(det, logged_at=(self.node.node_id,))
                    self._buffer_message(det.sender, det.ssn, decode_image(image))
            if entries:
                self._next_log_rsn = max(e[0].rsn for e in entries) + 1
            else:
                self._next_log_rsn = self.node.app.delivered_count
            on_done()

        self.node.storage.log_read(
            self._log_name(), LOG_RECORD_OVERHEAD + 128, loaded
        )

    # ------------------------------------------------------------------
    # peer-recovery hook: retransmit what might have been in flight
    # ------------------------------------------------------------------
    def on_peer_recovered(self, peer: int) -> None:
        node = self.node
        for ssn, (data, size) in self.send_log.messages_for(peer):
            if (peer, ssn) in self._acked:
                continue
            node.network.send(
                Message(
                    src=node.node_id,
                    dst=peer,
                    kind=MessageKind.PROTOCOL,
                    mtype="retransmit_data",
                    payload={"ssn": ssn, "data": data},
                    body_bytes=size,
                    incarnation=node.incarnation,
                    ssn=ssn,
                )
            )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data.update(
            sync_log_writes=self.sync_log_writes,
            stable_log_entries=self.node.storage.log_len(self._log_name())
            if self.node is not None
            else 0,
        )
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PessimisticLogging()"
