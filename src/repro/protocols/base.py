"""Protocol base classes.

:class:`LoggingProtocol` is the interface every protocol implements;
:class:`LogBasedProtocol` adds the machinery shared by the message-logging
family (FBL and its instances): sender-side volatile message logging,
retransmission service, and the deterministic *replay engine* that a
recovering process runs once the recovery algorithm has handed it the
receipt orders of its pre-crash deliveries.

The replay engine is recovery-algorithm-agnostic: both the blocking
baseline and the paper's new non-blocking algorithm end by calling
:meth:`LogBasedProtocol.begin_replay` with the gathered ``depinfo``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.causality.determinant import Determinant
from repro.net.network import Message, MessageKind
from repro.storage.volatile import DeterminantLog, SendLog, host_mask

#: a depinfo reply: determinants and their host masks, index for index
Depinfo = Tuple[List[Determinant], List[int]]


def delivered_prefixes(delivered_ids: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Per sender: the highest k such that ssns 0..k are all delivered.

    Only a contiguous prefix is known to be done with -- a gap may be a
    message still in flight.
    """
    by_sender: Dict[int, Set[int]] = {}
    for sender, ssn in delivered_ids:
        by_sender.setdefault(sender, set()).add(ssn)
    prefixes: Dict[int, int] = {}
    for sender, ssns in by_sender.items():
        k = -1
        while k + 1 in ssns:
            k += 1
        prefixes[sender] = k
    return prefixes


class LoggingProtocol(ABC):
    """Interface between a :class:`~repro.core.node.Node` and its protocol."""

    #: human-readable protocol name
    name: str = "abstract"
    #: recovery manager names this protocol can be paired with; the first
    #: is its natural one (the CLI's default when ``--recovery`` is unset)
    supported_recovery: Tuple[str, ...] = ()
    #: whether begin_replay should ask senders to retransmit logged data
    requests_retransmissions: bool = True
    #: whether the run is deterministic enough for the replay oracle
    oracle_compatible: bool = True

    def __init__(self) -> None:
        self.node = None  # set by attach()
        self.piggyback_determinants_sent = 0

    # -- wiring ----------------------------------------------------------
    def attach(self, node: "Node") -> None:
        """Bind the protocol to its node.  Called once at system build."""
        self.node = node

    # -- failure-free operation -------------------------------------------
    def on_start(self) -> None:
        """Emit the application's initial sends."""
        for send in self.node.app.initial_sends():
            self.send_app(send.dst, send.payload, send.body_bytes)

    @abstractmethod
    def send_app(self, dst: int, payload: Dict[str, Any], body_bytes: int) -> None:
        """Application-level send, with whatever logging the protocol does."""

    @abstractmethod
    def on_app_message(self, msg: Message) -> None:
        """An application message arrived while the node is live."""

    def on_protocol_message(self, msg: Message) -> None:
        """A protocol control message arrived (acks, retransmissions...)."""

    def on_app_message_during_recovery(self, msg: Message) -> None:
        """An application message arrived while the node is recovering."""

    def on_peer_recovered(self, peer: int, through: int = -1) -> None:
        """A peer completed recovery, having delivered every message this
        node sent it up to ssn ``through`` (hook for retransmitting
        in-flight messages it may have lost)."""

    # -- crash / checkpoint lifecycle --------------------------------------
    @abstractmethod
    def on_crash(self) -> None:
        """The node crashed: every volatile structure is wiped."""

    def on_restore(self, checkpoint: "Checkpoint", state: Dict[str, Any]) -> None:
        """A checkpoint was reloaded; rebuild protocol state from ``state``:
        what :meth:`checkpoint_extra` returned, freshly decoded with every
        type preserved.  The protocol owns it and may adopt its parts."""

    def restore_stable(self, on_done: "Callable[[], None]") -> None:
        """Read any protocol state kept on stable storage after a restart.

        Called after :meth:`on_restore`; recovery begins only once
        ``on_done`` fires.  The default has nothing on stable storage.
        """
        on_done()

    def checkpoint_extra(self) -> Dict[str, Any]:
        """Protocol state to include in a checkpoint: plain data, live
        structures welcome (the store encodes it at once)."""
        return {}

    def on_checkpoint(self, checkpoint: "Checkpoint") -> None:
        """A checkpoint became durable (garbage-collection hook)."""

    # -- output commit -------------------------------------------------------
    def request_output_commit(self, output_id: tuple, payload: Dict[str, Any]) -> None:
        """The application wants ``payload`` released to the outside world.

        Default: commit immediately.  This is correct exactly when every
        delivery is already stable before the application sees it --
        pessimistic logging's defining property.  Protocols with weaker
        logging override this to defer until the state is recoverable.
        """
        self.node.commit_output(output_id, payload, self.node.sim.now)

    # -- recovery support ---------------------------------------------------
    def local_depinfo_wire(self, want: int) -> Depinfo:
        """This node's receipt-order knowledge that a recovery of the
        hosts in ``want`` (a host mask) can use, serialized for a reply."""
        return [], []

    def absorb_piggybacks(self, messages: List[Message]) -> None:
        """Merge piggybacked metadata from messages not yet *delivered*.

        Recovery calls this before composing a depinfo reply on a node
        whose delivery is suspended (the blocking baseline): the queued
        messages have physically arrived at this host — and their
        senders counted this host toward replication when they attached
        the piggyback — so the reply must reflect them even though the
        application has not seen them yet.  Absorption is idempotent;
        the normal delivery path re-absorbs when the queue drains.
        """

    def begin_replay(self, depinfo_wire: Depinfo) -> None:
        """Recovering node got its depinfo; replay to the pre-crash state."""
        raise NotImplementedError(f"{self.name} does not support replay")

    # -- accounting -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Protocol-specific counters for the run summary."""
        return {"piggyback_determinants": self.piggyback_determinants_sent}


class LogBasedProtocol(LoggingProtocol):
    """Shared machinery for the sender-logging (FBL) family.

    Subclass responsibilities:

    * :meth:`_piggyback_for` -- which determinants to attach to an
      outgoing message,
    * :meth:`_absorb_piggyback` -- how to merge an incoming piggyback,
    * :meth:`_record_own_determinant` -- bookkeeping when this node
      assigns a receipt order (e.g. SBML's ack, Manetho's stable write).
    """

    def __init__(self) -> None:
        super().__init__()
        self.send_log = SendLog()
        self.det_log = DeterminantLog()
        #: (src, ssn) -> payload buffered while recovering
        self._replay_buffer: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._replay_buffer_order: List[Tuple[int, int]] = []
        #: rsn -> determinant, set by begin_replay
        self._replay_orders: Dict[int, Any] = {}
        self._replay_target: int = -1
        self._replaying = False
        #: outputs awaiting recoverability: (output_id, payload, requested_at)
        self._pending_outputs: List[Tuple[tuple, Dict[str, Any], float]] = []
        self._output_retry_timer = None

    def attach(self, node: "Node") -> None:
        super().attach(node)
        self._own_mask = host_mask((node.node_id,))
        self._emit_send = node.trace.emitter(
            "app", "send", ("dst", "ssn", "deliveries"))

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _piggyback_for(self, dst: int) -> List[Any]:
        """Wire-format piggyback for a message to ``dst``."""
        return []

    def _absorb_piggyback(self, msg: Message) -> None:
        """Merge an incoming message's piggyback into local knowledge."""

    def _record_own_determinant(self, det: Determinant, msg: Optional[Message]) -> None:
        """This node delivered a message and created ``det``: log it here
        (host mask ``self._own_mask``)."""
        self.det_log.merge(det, self._own_mask)

    def _on_depinfo_loaded(self) -> None:
        """Gathered depinfo was merged into the determinant log."""

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_app(self, dst: int, payload: Dict[str, Any], body_bytes: int) -> None:
        node = self.node
        me, delivered = node.node_id, node.app.delivered_count
        ssn = node.next_ssn(dst)
        self.send_log.log(dst, ssn, payload, body_bytes)
        emit = self._emit_send
        if emit.live:
            emit(node.sim.now, me, dst, ssn, delivered)
        else:
            emit.count += 1
        node.oracle.on_send(me, ssn, dst, delivered)  # after the record: see Node.deliver_app
        piggyback = self._piggyback_for(dst)
        self.piggyback_determinants_sent += len(piggyback)
        node.network.send(Message(
            me, dst, MessageKind.APPLICATION, "app", {"data": payload},
            body_bytes, piggyback, node.incarnation, ssn,
        ))

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_app_message(self, msg: Message) -> None:
        self._absorb_piggyback(msg)
        key = (msg.src, msg.ssn)
        if key in self.node.delivered_ids:
            return  # duplicate (a replayed regeneration); already delivered
        self._deliver(msg.src, msg.ssn, msg.payload["data"], msg)

    def on_app_message_during_recovery(self, msg: Message) -> None:
        """Buffer application traffic that arrives mid-recovery.

        The data may be needed by the replay (a regenerated message from
        another recovering process) or it may be genuinely new traffic;
        either way it is not delivered until replay decides its place.
        """
        self._absorb_piggyback(msg)
        self._buffer_message(msg.src, msg.ssn, msg.payload["data"])
        if self._replaying:
            self._advance_replay()

    def _buffer_message(self, src: int, ssn: int, data: Dict[str, Any]) -> None:
        key = (src, ssn)
        if key in self.node.delivered_ids or key in self._replay_buffer:
            return
        self._replay_buffer[key] = data
        self._replay_buffer_order.append(key)

    def _deliver(
        self, sender: int, ssn: int, data: Dict[str, Any], msg: Optional[Message],
        det: Optional[Determinant] = None,
    ) -> None:
        """Deliver ``data`` as this node's next rsn.  ``det`` is the
        delivery's determinant when a stable-log record already holds it
        (one object for both); otherwise it is made here."""
        node = self.node
        if det is None:
            det = Determinant(sender, ssn, node.node_id, node.app.delivered_count)
        # bookkeeping first: if the delivery emits an output, its own
        # determinant must already be tracked (and its stable write or
        # ack already in flight) for the commit gating to see it
        self._record_own_determinant(det, msg)
        for dst, payload, body_bytes in node.deliver_app(sender, ssn, data):
            self.send_app(dst, payload, body_bytes)
        node.maybe_checkpoint()

    # ------------------------------------------------------------------
    # output commit
    # ------------------------------------------------------------------
    def _output_ready_for(self, rsn: int) -> bool:
        """Is the state up to (and including) delivery ``rsn``
        recoverable?  Default: yes (pessimistic semantics: everything is
        stable before the application even sees it)."""
        return True

    def _flush_for_output(self, rsn: int) -> None:
        """Actively push whatever blocks committing an output at ``rsn``."""

    #: retry cadence for pending outputs whose flush messages were lost
    #: to a concurrent crash (control-plane only; cancelled when drained)
    OUTPUT_RETRY_INTERVAL = 0.1

    def request_output_commit(self, output_id: tuple, payload: Dict[str, Any]) -> None:
        now = self.node.sim.now
        rsn = output_id[1]
        if self._output_ready_for(rsn):
            self.node.commit_output(output_id, payload, now)
            return
        self._pending_outputs.append((output_id, dict(payload), now))
        self._flush_for_output(rsn)
        self._arm_output_retry()

    def _check_pending_outputs(self) -> None:
        still_pending = []
        for output_id, payload, requested_at in self._pending_outputs:
            if self._output_ready_for(output_id[1]):
                self.node.commit_output(output_id, payload, requested_at)
            else:
                still_pending.append((output_id, payload, requested_at))
        self._pending_outputs = still_pending
        if not self._pending_outputs:
            self._cancel_output_retry()

    def _arm_output_retry(self) -> None:
        if self._output_retry_timer is not None and self._output_retry_timer.pending:
            return
        from repro.sim.timers import Timer  # a failure-free FBL run never builds one

        self._output_retry_timer = Timer(
            self.node.sim,
            self.OUTPUT_RETRY_INTERVAL,
            self._retry_pending_outputs,
            label=f"output-retry-{self.node.node_id}",
        ).start()

    def _cancel_output_retry(self) -> None:
        if self._output_retry_timer is not None:
            self._output_retry_timer.cancel()
            self._output_retry_timer = None

    def _retry_pending_outputs(self) -> None:
        self._output_retry_timer = None
        if not self._pending_outputs or not self.node.is_live:
            # replay will re-request outputs if we are mid-recovery
            if self.node.is_recovering and self._pending_outputs:
                self._arm_output_retry()
            return
        self._check_pending_outputs()
        if self._pending_outputs:
            for output_id, _payload, _requested in self._pending_outputs:
                self._flush_for_output(output_id[1])
            self._arm_output_retry()

    # ------------------------------------------------------------------
    # retransmission service
    # ------------------------------------------------------------------
    def on_protocol_message(self, msg: Message) -> None:
        if msg.mtype == "retransmit_request":
            self._serve_retransmissions(msg.src)
        elif msg.mtype == "retransmit_data":
            self._on_retransmit_data(msg)

    def _serve_retransmissions(self, requester: int, after: int = -1) -> None:
        node = self.node
        for ssn, (data, size) in self.send_log.messages_for(requester, after):
            node.network.send(
                Message(
                    src=node.node_id,
                    dst=requester,
                    kind=MessageKind.PROTOCOL,
                    mtype="retransmit_data",
                    payload={"ssn": ssn, "data": data},
                    body_bytes=size,
                    incarnation=node.incarnation,
                    ssn=ssn,
                )
            )

    def _on_retransmit_data(self, msg: Message) -> None:
        node = self.node
        key = (msg.src, msg.payload["ssn"])
        if node.is_recovering:
            self._buffer_message(msg.src, msg.payload["ssn"], msg.payload["data"])
            if self._replaying:
                self._advance_replay()
            return
        # Live node: a retransmission of something already delivered is a
        # duplicate; otherwise it was in flight when we crashed -- deliver
        # it as fresh traffic.
        if key in node.delivered_ids:
            return
        self._deliver(msg.src, msg.payload["ssn"], msg.payload["data"], msg)

    def on_peer_recovered(self, peer: int, through: int = -1) -> None:
        """Retransmit our logged messages past ssn ``through`` to a freshly
        recovered peer.

        The peer named ``through`` in its completion: it has delivered
        every ssn up to it from us, so a resend of those would only be
        dropped on arrival as a duplicate.  Past it, anything it already
        replayed or delivered is dropped the same way; anything that was
        in flight (and therefore lost) when it crashed is delivered
        fresh, so application chains through the failed process resume.
        Pending outputs whose flush targets crashed get another chance
        too.
        """
        self._serve_retransmissions(peer, through)
        if self._pending_outputs:
            for output_id, _payload, _requested in self._pending_outputs:
                self._flush_for_output(output_id[1])
            self._check_pending_outputs()

    # ------------------------------------------------------------------
    # crash / checkpoint
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        self.send_log.clear()
        self.det_log.clear()
        self._replay_buffer.clear()
        self._replay_buffer_order.clear()
        self._replay_orders.clear()
        self._replay_target = -1
        self._replaying = False
        # uncommitted outputs die with the process: the outside world
        # never saw them, and replay will re-request them
        self._pending_outputs.clear()
        self._cancel_output_retry()

    # ------------------------------------------------------------------
    # replay engine
    # ------------------------------------------------------------------
    def local_depinfo_wire(self, want: int) -> Depinfo:
        """What this node knows that the hosts in ``want`` can use: its
        log's own determinant objects of their deliveries or counted as
        held by them, sorted (immutable, so a reply carries them by
        reference), and the host mask of each at the same index (see
        :meth:`DeterminantLog.depinfo`)."""
        return self.det_log.depinfo(want)

    def absorb_piggybacks(self, messages: List[Message]) -> None:
        for msg in messages:
            self._absorb_piggyback(msg)

    def begin_replay(self, depinfo_wire: Depinfo) -> None:
        """Start replaying from the restored checkpoint.

        ``depinfo_wire`` is the merged receipt-order information the
        recovery algorithm gathered: the live hosts' own determinant
        objects and, index for index, the OR of the host masks their
        replies carried (empty for the managers that gather nothing).
        Each is merged into this log as it is, with this host added to
        its mask, so a determinant already stored at enough hosts is
        stable here at once and is not piggybacked again.  The engine
        requests retransmissions, delivers buffered/incoming data in rsn
        order up to the highest known rsn, then reports completion to
        the recovery manager.
        """
        node = self.node
        merge, own = self.det_log.merge, self._own_mask
        for det, mask in zip(*depinfo_wire):
            merge(det, mask | own)
        self._on_depinfo_loaded()
        self._replay_orders = self.det_log.for_receiver(node.node_id)
        self._replay_target = max(self._replay_orders, default=-1)
        self._replaying = True
        node.trace.record(
            node.sim.now,
            "replay",
            node.node_id,
            "start",
            target_rsn=self._replay_target,
            from_rsn=node.app.delivered_count,
        )

        senders_needed: Set[int] = set()
        if self.requests_retransmissions:
            senders_needed = {
                det.sender
                for rsn, det in self._replay_orders.items()
                if rsn >= node.app.delivered_count
            }
        for sender in sorted(senders_needed):
            node.network.send(
                Message(
                    src=node.node_id,
                    dst=sender,
                    kind=MessageKind.PROTOCOL,
                    mtype="retransmit_request",
                    payload={"requester": node.node_id},
                    body_bytes=16,
                    incarnation=node.incarnation,
                )
            )
        self._advance_replay()

    def request_retransmissions_from(self, sender: int) -> None:
        """Re-ask ``sender`` for logged data the replay still needs.

        The original request is lost if the sender was crashed when it
        was sent; the recovery managers call this when a sender announces
        its own recovery (join / completion), so the replay can make
        progress again.
        """
        node = self.node
        if not self._replaying:
            return
        needed = any(
            det.sender == sender and det.message_id not in self._replay_buffer
            for rsn, det in self._replay_orders.items()
            if rsn >= node.app.delivered_count
        )
        if not needed:
            return
        node.network.send(
            Message(
                src=node.node_id,
                dst=sender,
                kind=MessageKind.PROTOCOL,
                mtype="retransmit_request",
                payload={"requester": node.node_id},
                body_bytes=16,
                incarnation=node.incarnation,
            )
        )

    def _advance_replay(self) -> None:
        """Deliver as many replay steps as the buffered data allows."""
        node = self.node
        if not self._replaying:
            return
        while node.app.delivered_count <= self._replay_target:
            rsn = node.app.delivered_count
            det = self._replay_orders.get(rsn)
            if det is None:
                raise RuntimeError(
                    f"node {node.node_id}: replay gap at rsn {rsn} "
                    f"(target {self._replay_target}); determinant lost despite "
                    f"<= f failures"
                )
            key = det.message_id
            data = self._replay_buffer.pop(key, None)
            if data is None:
                return  # wait for retransmission / regeneration
            if key in self._replay_buffer_order:
                self._replay_buffer_order.remove(key)
            self._deliver(det.sender, det.ssn, data, None)
        self._finish_replay()

    def _finish_replay(self) -> None:
        node = self.node
        self._replaying = False
        node.trace.record(
            node.sim.now,
            "replay",
            node.node_id,
            "done",
            delivered=node.app.delivered_count,
        )
        node.recovery.on_replay_complete()
        # Anything left in the buffer was in-flight traffic that is not
        # part of the replayed prefix; deliver it now, in arrival order.
        leftovers = [k for k in self._replay_buffer_order if k in self._replay_buffer]
        self._replay_buffer_order = []
        for src, ssn in leftovers:
            data = self._replay_buffer.pop((src, ssn))
            if (src, ssn) not in node.delivered_ids:
                self._deliver(src, ssn, data, None)
        # outputs re-requested during replay may have flushed into the
        # void (their targets down, or peers' answers missed while we
        # were recovering): try again now that we are live
        if self._pending_outputs:
            for output_id, _payload, _requested in self._pending_outputs:
                self._flush_for_output(output_id[1])
            self._check_pending_outputs()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data.update(
            send_log_entries=len(self.send_log),
            send_log_bytes=self.send_log.bytes_logged,
            determinants_known=len(self.det_log),
        )
        return data
