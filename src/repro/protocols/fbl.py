"""The Family-Based Logging protocols, parameterised by ``f``.

From Section 2 of the paper:

    To tolerate f process failures in a rollback-recovery system, it is
    sufficient to log each message in the volatile store of its sender
    and to log its receipt order in the volatile store of f + 1
    different hosts.

Concretely:

* every outgoing message's data goes in the sender's volatile
  :class:`~repro.storage.volatile.SendLog` (captured by checkpoints so
  pre-checkpoint messages remain replayable across the sender's crash);
* every delivery creates a determinant, and each process piggybacks on
  each application message the determinants it knows that are not yet
  replicated at ``f + 1`` hosts ("propagation of the receipt order of a
  certain message stops as soon as it has been recorded in f + 1
  hosts");
* no stable-storage logging happens at all, except for the ``f = n``
  instance (see :mod:`repro.protocols.manetho`), which models stable
  storage as an additional process that never fails, exactly as the
  paper does.

Replication accounting is optimistic: a host is counted as storing a
determinant when the piggyback copy is sent.  A counted copy lost to a
partition, whose sender then crashes, breaks the FBL guarantee (some live
host knows every needed receipt order) at ``f`` failures, as churn seed
34 of ``fbl/blocking`` shows; see ROADMAP item 2.

A recovered process keeps the host masks its gather carried: each live
host's depinfo reply names, beside every determinant, the hosts that
host knows to store it, and the recovering log merges their OR with its
own bit.  A determinant the gather shows replicated enough is stable at
once and is not piggybacked again; the owner of such a determinant
learns it only from piggybacks, as on the failure-free path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.causality.determinant import Determinant
from repro.net.network import Message, MessageKind
from repro.protocols.base import LogBasedProtocol, delivered_prefixes
from repro.storage.volatile import Item, host_mask

#: Virtual host id representing the never-failing stable-storage process
#: the paper introduces for the ``f = n`` case.
STABLE_HOST = -1


class FamilyBasedLogging(LogBasedProtocol):
    """FBL(f): sender-based data logging + f+1-replicated receipt orders.

    Parameters
    ----------
    f:
        Number of simultaneous failures to tolerate.  ``f = 1`` behaves
    like sender-based message logging; ``f = n`` (with stable-storage
    determinant logging) behaves like Manetho.
    ack_to_sender:
        If True, the receiver returns each new determinant to the
        message's sender in a small ack (classic SBML behaviour).  Off by
        default: plain FBL spreads determinants by piggybacking only.
    """

    name = "fbl"
    supported_recovery = ("nonblocking", "blocking")

    def __init__(self, f: int = 2, ack_to_sender: bool = False) -> None:
        super().__init__()
        if f < 1:
            raise ValueError(f"f must be >= 1, got {f!r}")
        self.f = self.det_log.f = f
        self.ack_to_sender = ack_to_sender
        # cache of determinants not yet replicated at f + 1 hosts, so a
        # send only scans piggyback *candidates*, not the whole log
        self._unstable: Dict[Tuple[int, int], Determinant] = {}
        self._next_flush_id = 0
        self.output_flushes = 0
        # open protocol.det_flush spans, keyed by (target, pushed dets)
        self._flush_spans: Dict[Tuple[int, Tuple], int] = {}

    def attach(self, node: "Node") -> None:
        super().attach(node)
        self._emit_det_stable = node.trace.emitter(
            "protocol", "det_stable", ("rsn", "sender", "ssn"))

    @property
    def replication_target(self) -> int:
        """Hosts that must store a determinant before piggybacking stops."""
        return self.f + 1

    # ------------------------------------------------------------------
    # piggybacking
    # ------------------------------------------------------------------
    def _det_stable(self, det: Determinant) -> bool:
        return self.det_log.stable(self.det_log.mask(det))

    def _track(self, det: Determinant, mask: int) -> None:
        """Merge ``mask`` into one determinant's host set and refresh the
        unstable cache: the per-message pass, over a batch of one."""
        self.det_log.absorb(
            ((det.delivery_id, det, mask),), (), self._unstable, self.node.node_id,
            self._on_own_stable)

    def _on_own_stable(self, det: Determinant, was_cached: bool) -> None:
        """A determinant-log pass found one of our own deliveries stable."""
        if was_cached:
            # it just crossed the f+1 (or stable-host) threshold:
            # outputs at this rsn are safe
            emit = self._emit_det_stable
            if emit.live:
                node = self.node
                emit(node.sim.now, node.node_id, det.rsn, det.sender, det.ssn)
            else:
                emit.count += 1
        if self._pending_outputs:
            self._check_pending_outputs()

    def _rebuild_unstable(self) -> None:
        me = self.node.node_id
        self._unstable = {}
        for det in self.det_log.determinants():
            if not self._det_stable(det):
                self._unstable[det.delivery_id] = det
            elif det.receiver == me:
                # a determinant can arrive already stable (restored from
                # a checkpoint, or loaded from gathered depinfo) and so
                # never transit the unstable cache; re-announce it so the
                # stability record covers the whole log
                emit = self._emit_det_stable
                if emit.live:
                    emit(self.node.sim.now, me, det.rsn, det.sender, det.ssn)
                else:
                    emit.count += 1

    def _piggyback_for(self, dst: int) -> List[Item]:
        """``(delivery_id, determinant, host mask)`` items: the wire form is
        private to the FBL family (only :meth:`_absorb_piggyback` reads it;
        the network charges ``len(piggyback)``), so the immutable objects
        travel as they are and every receiving log shares the key."""
        return self.det_log.spread(
            dst, self._unstable, self.node.node_id, self._on_own_stable)

    def _absorb_piggyback(self, msg: Message) -> None:
        me = self.node.node_id
        self.det_log.absorb(
            msg.piggyback, (msg.src, me), self._unstable, me, self._on_own_stable)

    def _record_own_determinant(self, det: Determinant, msg: Optional[Message]) -> None:
        # one absorb logs it here and caches it, under one key tuple
        self._track(det, self._own_mask)
        if self.ack_to_sender and msg is not None:
            self._send_det_ack(det)

    def _send_det_ack(self, det: Determinant) -> None:
        node = self.node
        node.network.send(
            Message(
                src=node.node_id,
                dst=det.sender,
                kind=MessageKind.PROTOCOL,
                mtype="det_ack",
                payload={"det": det},
                body_bytes=16,
                incarnation=node.incarnation,
            )
        )

    def on_protocol_message(self, msg: Message) -> None:
        if msg.mtype == "det_ack":
            det = msg.payload["det"]
            self._track(det, self.det_log.merge(det, host_mask((msg.src, self.node.node_id))))
            return
        if msg.mtype == "det_push":
            self._on_det_push(msg)
            return
        if msg.mtype == "det_push_ack":
            self._on_det_push_ack(msg)
            return
        if msg.mtype == "gc_notice":
            self._on_gc_notice(msg)
            return
        super().on_protocol_message(msg)

    # ------------------------------------------------------------------
    # output commit: FBL is ready when every determinant of its own
    # deliveries is replicated at f + 1 hosts; an explicit, acknowledged
    # push closes the gap when piggybacking has not yet done the job
    # ------------------------------------------------------------------
    def _output_ready_for(self, rsn: int) -> bool:
        me = self.node.node_id
        return not any(
            key[0] == me and key[1] <= rsn for key in self._unstable
        )

    def _flush_for_output(self, rsn: int) -> None:
        """Push this process's unstable determinants (up to the output's
        delivery) to enough hosts.

        Unlike piggybacking, the push is *acknowledged*: a determinant
        only counts as replicated once the target confirms storing it,
        so output-commit latency honestly includes the round trip.
        """
        node = self.node
        me = node.node_id
        own_unstable = [
            self._unstable[key]
            for key in sorted(self._unstable)
            if key[0] == me and key[1] <= rsn
        ]
        if not own_unstable:
            return
        per_target: Dict[int, List[Determinant]] = {}
        for det in own_unstable:
            hosts = self.det_log.logged_at(det)
            missing = self.replication_target - len(hosts)
            candidates = [
                p for p in range(node.config.n)
                if p != me and p not in hosts
                and not node.detector.is_suspected(p)
            ]
            for target in candidates[:missing]:
                per_target.setdefault(target, []).append(det)
        for target, dets in sorted(per_target.items()):
            self.output_flushes += 1
            if node.trace.spans.enabled:
                key = (target, tuple(dets))
                span = node.trace.spans.begin(
                    "protocol.det_flush",
                    me,
                    node.sim.now,
                    target=target,
                    determinants=len(dets),
                )
                if span is not None and key not in self._flush_spans:
                    self._flush_spans[key] = span
            node.network.send(
                Message(
                    src=me,
                    dst=target,
                    kind=MessageKind.PROTOCOL,
                    mtype="det_push",
                    payload={"dets": dets},
                    body_bytes=8 + 32 * len(dets),
                    incarnation=node.incarnation,
                )
            )

    def _on_det_push(self, msg: Message) -> None:
        stored = msg.payload["dets"]
        stored_at = host_mask((msg.src, self.node.node_id))
        for det in stored:
            self._track(det, self.det_log.merge(det, stored_at))
        # a trace value is plain data: it reprs and serialises as a tuple
        self.node.trace.record(
            self.node.sim.now, "protocol", self.node.node_id, "det_store",
            src=msg.src, dets=[tuple(det) for det in stored],
        )
        self.node.network.send(
            Message(
                src=self.node.node_id,
                dst=msg.src,
                kind=MessageKind.PROTOCOL,
                mtype="det_push_ack",
                payload={"dets": stored},
                body_bytes=8,
                incarnation=self.node.incarnation,
            )
        )

    def _on_det_push_ack(self, msg: Message) -> None:
        dets = msg.payload["dets"]
        span = self._flush_spans.pop((msg.src, tuple(dets)), None)
        if span is not None:
            self.node.trace.spans.end(span, self.node.sim.now)
        self.node.trace.record(
            self.node.sim.now, "protocol", self.node.node_id, "det_ack",
            src=msg.src, dets=[tuple(det) for det in dets],
        )
        for det in dets:
            self._track(det, self.det_log.note_logged_at(det, msg.src))

    # ------------------------------------------------------------------
    # checkpoint integration
    # ------------------------------------------------------------------
    def checkpoint_extra(self) -> Dict[str, Any]:
        """Capture both volatile logs.

        The send log must survive the sender's crash for messages sent
        *before* the checkpoint (they are not regenerated by replay); the
        determinant log keeps this host's contribution to the ``f + 1``
        replication valid across its own crash-and-recover.
        """
        return {
            "send_log": self.send_log.to_state(),
            "det_log": self.det_log.to_state(),
        }

    def on_checkpoint(self, checkpoint: "Checkpoint") -> None:
        """A checkpoint became durable: garbage-collect.

        * locally, our own determinants for deliveries the checkpoint
          covers are never replayed again;
        * peers can prune their send logs up to our contiguous delivered
          prefix and drop their copies of our covered determinants.
        """
        node = self.node
        count = checkpoint.delivered_count
        if count == 0:
            return
        dropped = self.det_log.drop_receiver_prefix(node.node_id, count)
        for key in [k for k in self._unstable if k[0] == node.node_id and k[1] < count]:
            del self._unstable[key]
        # prune strictly from the snapshot's own delivered set: messages
        # delivered while the checkpoint write was in flight are NOT
        # covered by it, and a crash before the next checkpoint would
        # need their data from the senders again
        prefixes = delivered_prefixes(checkpoint.delivered_ids)
        node.trace.record(
            node.sim.now, "gc", node.node_id, "notice",
            covered=count, local_dets_dropped=dropped,
        )
        # a durable checkpoint makes the covered prefix recoverable by
        # itself: outputs gated on those determinants may commit now
        self._check_pending_outputs()
        for peer in range(node.config.n):
            if peer == node.node_id:
                continue
            node.network.send(
                Message(
                    src=node.node_id,
                    dst=peer,
                    kind=MessageKind.PROTOCOL,
                    mtype="gc_notice",
                    payload={
                        "covered": count,
                        "ssn_prefix": prefixes.get(peer, -1),
                    },
                    body_bytes=16,
                    incarnation=node.incarnation,
                )
            )

    def _on_gc_notice(self, msg: Message) -> None:
        pruned = self.send_log.prune_upto(msg.src, msg.payload["ssn_prefix"])
        dropped = self.det_log.drop_receiver_prefix(msg.src, msg.payload["covered"])
        for key in [
            k for k in self._unstable
            if k[0] == msg.src and k[1] < msg.payload["covered"]
        ]:
            del self._unstable[key]
        if pruned or dropped:
            self.node.trace.record(
                self.node.sim.now, "gc", self.node.node_id, "pruned",
                peer=msg.src, send_log=pruned, determinants=dropped,
            )

    def on_restore(self, checkpoint: "Checkpoint", state: Dict[str, Any]) -> None:
        self.send_log.load_state(state["send_log"])
        self.det_log.load_state(state["det_log"])
        self._rebuild_unstable()

    def on_crash(self) -> None:
        super().on_crash()
        self._unstable.clear()
        for span in self._flush_spans.values():
            self.node.trace.spans.end(span, self.node.sim.now, aborted=True)
        self._flush_spans.clear()

    def _on_depinfo_loaded(self) -> None:
        self._rebuild_unstable()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data.update(
            f=self.f,
            output_flushes=self.output_flushes,
            unstable_determinants=len(self._unstable),
            # volatile-log GC effectiveness (checkpoint-driven pruning)
            send_log_bytes_pruned=self.send_log.bytes_pruned,
            send_log_entries_pruned=self.send_log.entries_pruned,
            determinants_pruned=self.det_log.entries_pruned,
        )
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FamilyBasedLogging(f={self.f})"
