"""Coordinated checkpointing (no logging at all).

The other classical alternative to message logging: processes take
*consistent global snapshots* and, on any failure, everyone rolls back
to the last committed snapshot line.  Failure-free cost is periodic
(here: a send-hold while channels drain, plus a checkpoint write);
recovery cost is massive intrusion -- every process loses all work since
the last snapshot and stalls through a stable-storage restore.  This is
the contrast class for experiment E7.

The snapshot algorithm is counter-based coordinated checkpointing (a
blocking variant of Chandy-Lamport / Mattern):

1. the initiator broadcasts ``cl_prepare``; every process *holds* its
   outgoing application sends (deliveries continue, draining channels);
2. processes report per-channel sent/received counters; the initiator
   re-polls until, for every channel, sent == received -- at which point
   no application message is in flight anywhere;
3. the initiator broadcasts ``cl_snap``: everyone snapshots its state
   (channels are empty, so process states alone form a consistent cut);
4. when every snapshot write is durable the initiator broadcasts
   ``cl_commit``; the round becomes the system-wide rollback target and
   everyone releases its held sends.

Holds are released at *commit*, not right after the local snapshot:
a process that released early could have its first post-snapshot
message overtake another process's still-in-flight ``cl_snap`` (easy
once the network delays or retransmits messages), and the late
snapshotter would record receipts the early releaser's snapshot says
were never sent -- an inconsistent cut that, once rolled back to, leaves
``received > sent`` on some channel and a drain check that can never
balance again.  Deferring the release until every snapshot is known to
be captured closes the race.

All round-machinery messages carry the sender's rollback epoch and
receivers discard mismatches, so control traffic from a rolled-back
execution (a stale ``cl_prepare`` would start a hold nothing ever
releases) cannot re-engage the round state machine.

Rollback uses epochs: every message carries its sender's epoch; a
rollback bumps the system epoch, so messages from the rolled-back
execution are discarded, and messages from a process that already
rolled back are buffered by processes that have not yet caught up.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.network import Message, MessageKind
from repro.protocols.base import LoggingProtocol
from repro.storage.checkpoint import decode_image, encode_image

#: Delay between counter polls while waiting for channels to drain.
POLL_INTERVAL = 0.005


class CoordinatedCheckpointing(LoggingProtocol):
    """Consistent snapshots + global rollback; no message logging."""

    name = "coordinated"
    supported_recovery = ("coordinated",)

    def __init__(self, snapshot_every: int = 10, initiator: int = 0) -> None:
        super().__init__()
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every!r}")
        self.snapshot_every = snapshot_every
        self.initiator = initiator
        self.epoch = 0
        self.committed_round = 0
        self.sent_count: Dict[int, int] = {}
        self.recv_count: Dict[int, int] = {}
        self._holding = False
        self._held_sends: List[Tuple[int, Dict[str, Any], int]] = []
        self._hold_started_at: Optional[float] = None
        #: the newest round this hold serves; a commit releases the hold
        #: only if it covers this round (a stale commit must not)
        self._hold_round = 0
        self.hold_time_total = 0.0
        #: round-machinery messages dropped for carrying a stale epoch
        self.stale_ctl_dropped = 0
        self._future_epoch: List[Message] = []
        # initiator state
        self._round_in_progress: Optional[int] = None
        self._next_round = 1
        self._counts: Dict[int, Tuple[Dict, Dict]] = {}
        self._done: set = set()
        self.rounds_committed = 0
        self.rounds_aborted = 0
        #: outputs waiting for a committed snapshot covering them:
        #: (output_id, payload, requested_at, rsn)
        self._pending_outputs: List[Tuple[tuple, Dict[str, Any], float, int]] = []
        #: round -> our delivered_count captured in that round's snapshot
        self._round_counts: Dict[int, int] = {0: 0}
        #: delivered_count covered by the latest *committed* round
        self._committed_count = 0
        # -- snapshot GC (gated by StorageRealismConfig.log_compaction) --
        #: peer -> highest committed round known *durable* at that peer
        #: (learned from cl_gc broadcasts; lower-bounds the peer's
        #: durable committed marker forever, because the marker writes
        #: are FIFO and the marker never decreases)
        self._durable_marks: Dict[int, int] = {}
        #: round ids with a snapshot on our stable storage
        self._written_rounds: set = set()
        self.rounds_reclaimed = 0

    # ------------------------------------------------------------------
    # sending / receiving
    # ------------------------------------------------------------------
    def send_app(self, dst: int, payload: Dict[str, Any], body_bytes: int) -> None:
        if self._holding:
            self._held_sends.append((dst, dict(payload), body_bytes))
            return
        self._send_now(dst, payload, body_bytes)

    def _send_now(self, dst: int, payload: Dict[str, Any], body_bytes: int) -> None:
        node = self.node
        ssn = node.next_ssn(dst)
        self.sent_count[dst] = self.sent_count.get(dst, 0) + 1
        node.oracle.on_send(node.node_id, ssn, dst, node.app.delivered_count)
        node.network.send(
            Message(
                src=node.node_id,
                dst=dst,
                kind=MessageKind.APPLICATION,
                mtype="app",
                payload={"data": payload, "epoch": self.epoch},
                body_bytes=body_bytes + 8,
                incarnation=node.incarnation,
                ssn=ssn,
            )
        )

    def on_app_message(self, msg: Message) -> None:
        msg_epoch = msg.payload.get("epoch", 0)
        if msg_epoch < self.epoch:
            return  # from a rolled-back execution
        if msg_epoch > self.epoch:
            self._future_epoch.append(msg)  # sender already rolled forward
            return
        self.recv_count[msg.src] = self.recv_count.get(msg.src, 0) + 1
        node = self.node
        sends = node.deliver_app(msg.src, msg.ssn, msg.payload["data"])
        for send in sends:
            self.send_app(send.dst, send.payload, send.body_bytes)
        self._maybe_initiate_round()

    def on_app_message_during_recovery(self, msg: Message) -> None:
        # The recovering node is about to roll everyone back; queue until
        # the epoch question is settled.
        self._future_epoch.append(msg)

    # ------------------------------------------------------------------
    # output commit: an output is safe only once a snapshot line that
    # includes its delivery has been committed system-wide -- coordinated
    # checkpointing's notoriously slow output commit
    # ------------------------------------------------------------------
    def request_output_commit(self, output_id: tuple, payload: Dict[str, Any]) -> None:
        node = self.node
        rsn = output_id[1]
        if rsn < self._committed_count:
            node.commit_output(output_id, payload, node.sim.now)
            return
        self._pending_outputs.append((output_id, dict(payload), node.sim.now, rsn))
        self._solicit_round()

    def _solicit_round(self) -> None:
        """Ask the initiator for a snapshot round so pending outputs can
        commit even after application traffic quiesces."""
        node = self.node
        if node.node_id == self.initiator:
            self._start_round()
        else:
            self._send_ctl(self.initiator, "cl_round_request", {}, body=8)

    def _on_cl_round_request(self, msg: Message) -> None:
        if self.node.node_id == self.initiator:
            self._start_round()

    def _release_committed_outputs(self) -> None:
        still_pending = []
        for output_id, payload, requested_at, rsn in self._pending_outputs:
            if rsn < self._committed_count:
                self.node.commit_output(output_id, payload, requested_at)
            else:
                still_pending.append((output_id, payload, requested_at, rsn))
        self._pending_outputs = still_pending

    def _drain_future_epoch(self) -> None:
        pending, self._future_epoch = self._future_epoch, []
        for msg in pending:
            self.node.receive(msg)

    # ------------------------------------------------------------------
    # snapshot rounds
    # ------------------------------------------------------------------
    def _peers(self) -> List[int]:
        return [p for p in range(self.node.config.n) if p != self.node.node_id]

    def _send_ctl(self, dst: int, mtype: str, payload: Dict[str, Any], body: int = 24) -> None:
        node = self.node
        payload = dict(payload)
        payload.setdefault("epoch", self.epoch)
        node.network.send(
            Message(
                src=node.node_id,
                dst=dst,
                kind=MessageKind.PROTOCOL,
                mtype=mtype,
                payload=payload,
                body_bytes=body,
                incarnation=node.incarnation,
            )
        )

    def _maybe_initiate_round(self) -> None:
        node = self.node
        if node.node_id != self.initiator:
            return
        if node.app.delivered_count % self.snapshot_every != 0:
            return
        self._start_round()

    def _start_round(self) -> None:
        node = self.node
        if self._round_in_progress is not None or not node.is_live:
            return
        round_id = self._next_round
        self._next_round += 1
        self._round_in_progress = round_id
        self._counts = {}
        self._done = set()
        node.trace.record(node.sim.now, "snapshot", node.node_id, "round_start", round=round_id)
        self._begin_hold(round_id)
        for peer in self._peers():
            self._send_ctl(peer, "cl_prepare", {"round": round_id})
        self._counts[node.node_id] = (dict(self.sent_count), dict(self.recv_count))
        self._check_balance()

    def _begin_hold(self, round_id: int) -> None:
        self._hold_round = max(self._hold_round, round_id)
        if not self._holding:
            self._holding = True
            self._hold_started_at = self.node.sim.now

    def _release_hold(self) -> None:
        if self._holding:
            self._holding = False
            if self._hold_started_at is not None:
                self.hold_time_total += self.node.sim.now - self._hold_started_at
                self._hold_started_at = None
            held, self._held_sends = self._held_sends, []
            for dst, payload, body in held:
                self._send_now(dst, payload, body)

    def on_protocol_message(self, msg: Message) -> None:
        if msg.payload.get("epoch", self.epoch) != self.epoch:
            self.stale_ctl_dropped += 1
            return  # round traffic from a rolled-back execution
        handler = getattr(self, f"_on_{msg.mtype}", None)
        if handler is not None:
            handler(msg)

    def _on_cl_prepare(self, msg: Message) -> None:
        self._begin_hold(msg.payload["round"])
        self._send_counts(msg.src, msg.payload["round"])

    def _on_cl_counts_request(self, msg: Message) -> None:
        self._send_counts(msg.src, msg.payload["round"])

    def _send_counts(self, dst: int, round_id: int) -> None:
        self._send_ctl(
            dst,
            "cl_counts",
            {
                "round": round_id,
                "sent": dict(self.sent_count),
                "recv": dict(self.recv_count),
            },
            body=16 + 16 * self.node.config.n,
        )

    def _on_cl_counts(self, msg: Message) -> None:
        if msg.payload["round"] != self._round_in_progress:
            return
        self._counts[msg.src] = (msg.payload["sent"], msg.payload["recv"])
        self._check_balance()

    def _check_balance(self) -> None:
        node = self.node
        round_id = self._round_in_progress
        if round_id is None:
            return
        everyone = set(range(node.config.n))
        if set(self._counts) != everyone:
            return
        self._counts[node.node_id] = (dict(self.sent_count), dict(self.recv_count))
        balanced = True
        for a in everyone:
            sent_a = self._counts[a][0]
            for b in everyone:
                if a == b:
                    continue
                if sent_a.get(b, sent_a.get(str(b), 0)) != self._counts[b][1].get(
                    a, self._counts[b][1].get(str(a), 0)
                ):
                    balanced = False
                    break
            if not balanced:
                break
        if balanced:
            node.trace.record(node.sim.now, "snapshot", node.node_id, "drained", round=round_id)
            for peer in self._peers():
                self._send_ctl(peer, "cl_snap", {"round": round_id})
            self._take_round_snapshot(round_id, report_to=None)
        else:
            # channels still draining; poll again shortly
            node.sim.schedule(POLL_INTERVAL, self._poll_counts, round_id, label="cl_poll")

    def _poll_counts(self, round_id: int) -> None:
        if round_id != self._round_in_progress or not self.node.is_live:
            return
        self._counts = {self.node.node_id: (dict(self.sent_count), dict(self.recv_count))}
        for peer in self._peers():
            self._send_ctl(peer, "cl_counts_request", {"round": round_id})
        self._check_balance()

    def _on_cl_snap(self, msg: Message) -> None:
        self._take_round_snapshot(msg.payload["round"], report_to=msg.src)

    def _take_round_snapshot(self, round_id: int, report_to: Optional[int]) -> None:
        """Capture state in memory now and write it durably.  The hold
        stays up until the round commits (or aborts): releasing here
        would let our first post-snapshot message race a peer's
        still-in-flight ``cl_snap`` and corrupt the cut."""
        node = self.node
        # pending output is part of the cut: with channels drained, the
        # system's entire "future" lives in the held sends
        image = self._round_image(round_id, self._held_sends)
        node.trace.record(
            node.sim.now, "snapshot", node.node_id, "snap", round=round_id,
            delivered=node.app.delivered_count,
        )
        node.oracle.on_snapshot(
            node.node_id, round_id, node.app.delivered_count, node.send_seqnos)
        self._round_counts[round_id] = node.app.delivered_count
        self._written_rounds.add(round_id)

        def durable() -> None:
            if report_to is None:
                self._on_cl_done_local(round_id)
            else:
                self._send_ctl(report_to, "cl_done", {"round": round_id}, body=8)

        node.storage.write(
            f"round:{round_id}", image, node.config.state_bytes, on_done=durable
        )

    def _round_image(
        self, round_id: int, held_sends: List[Tuple[int, Dict[str, Any], int]]
    ) -> bytes:
        """This node's part of the round's cut: live state in, immutable image out."""
        node = self.node
        return encode_image(
            {
                "round": round_id,
                "app_state": node.app.snapshot(),
                "send_seqnos": node.send_seqnos,
                "delivered_ids": node.delivered_ids,
                "sent_count": self.sent_count,
                "recv_count": self.recv_count,
                "epoch": self.epoch,
                "held_sends": held_sends,
            },
            f"round {round_id} snapshot of node {node.node_id}",
        )

    def _on_cl_done(self, msg: Message) -> None:
        if msg.payload["round"] != self._round_in_progress:
            return
        self._done.add(msg.src)
        self._check_round_committed()

    def _on_cl_done_local(self, round_id: int) -> None:
        if round_id != self._round_in_progress:
            return
        self._done.add(self.node.node_id)
        self._check_round_committed()

    def _check_round_committed(self) -> None:
        node = self.node
        if self._round_in_progress is None:
            return
        if self._done != set(range(node.config.n)):
            return
        round_id = self._round_in_progress
        self._round_in_progress = None
        self.rounds_committed += 1
        node.trace.record(node.sim.now, "snapshot", node.node_id, "commit", round=round_id)
        node.oracle.on_round_commit(round_id)
        for peer in self._peers():
            self._send_ctl(peer, "cl_commit", {"round": round_id}, body=8)
        self._apply_commit(round_id)

    def _on_cl_commit(self, msg: Message) -> None:
        self._apply_commit(msg.payload["round"])

    def _apply_commit(self, round_id: int) -> None:
        if self._holding and round_id >= self._hold_round:
            self._release_hold()
        if round_id > self.committed_round:
            self.committed_round = round_id
            self._committed_count = self._round_counts.get(
                round_id, self._committed_count
            )
            # per-node commit point: outputs up to ``covered`` deliveries
            # are recoverable from the committed cut from here on
            self.node.trace.record(
                self.node.sim.now, "snapshot", self.node.node_id, "committed",
                round=round_id, covered=self._committed_count,
            )
            self._write_committed_marker(round_id)
            self._release_committed_outputs()
            if self._pending_outputs:
                # an output requested after this round's snapshot: ask for
                # one more round to cover it
                self._solicit_round()

    # ------------------------------------------------------------------
    # snapshot GC: reclaim rounds below the global durable-commit horizon
    # ------------------------------------------------------------------
    def _gc_enabled(self) -> bool:
        realism = self.node.config.storage_realism
        return realism is not None and realism.log_compaction

    def _write_committed_marker(self, round_id: int) -> None:
        """Persist the committed-round marker; with GC enabled, announce
        the mark once it is *durable* (the announcement is a promise the
        marker can never again read below ``round_id``)."""
        if not self._gc_enabled():
            self.node.storage.write(f"committed:{self.node.node_id}", round_id, 8)
            return
        node = self.node
        epoch = node.crash_count

        def durable() -> None:
            if node.crash_count != epoch or not node.is_live:
                return  # the mark died with the crash; never announce it
            self._note_durable_mark(node.node_id, round_id)
            for peer in self._peers():
                self._send_ctl(peer, "cl_gc", {"round": round_id}, body=8)

        node.storage.write(
            f"committed:{node.node_id}", round_id, 8, on_done=durable
        )

    def _on_cl_gc(self, msg: Message) -> None:
        if self._gc_enabled():
            self._note_durable_mark(msg.src, msg.payload["round"])

    def _note_durable_mark(self, peer: int, round_id: int) -> None:
        if round_id > self._durable_marks.get(peer, -1):
            self._durable_marks[peer] = round_id
            self._reclaim_below_horizon()

    def _reclaim_below_horizon(self) -> None:
        """Drop snapshots no rollback can ever target again.

        Any future rollback round is the newest committed round some
        process reports, at least its *durable* committed marker, which
        is lower-bounded by its announced mark (marker writes are FIFO
        and monotone).  Rounds strictly below the minimum announced mark
        are therefore dead, whatever fails next.  Requires a mark from
        every node -- a silent (crashed) peer conservatively freezes the
        horizon.
        """
        node = self.node
        if set(self._durable_marks) != set(range(node.config.n)):
            return
        horizon = min(self._durable_marks.values())
        dead = sorted(r for r in self._written_rounds if r < horizon)
        for round_id in dead:
            node.storage.reclaim(f"round:{round_id}", node.config.state_bytes)
            self._written_rounds.discard(round_id)
            self._round_counts.pop(round_id, None)
            self.rounds_reclaimed += 1
        if dead:
            node.trace.record(
                node.sim.now, "gc", node.node_id, "rounds_reclaimed",
                rounds=dead, horizon=horizon,
            )

    def abort_round(self) -> None:
        """A failure interrupted the round; drop it and release holds."""
        if self._round_in_progress is not None:
            self.rounds_aborted += 1
            self.node.trace.record(
                self.node.sim.now, "snapshot", self.node.node_id, "abort",
                round=self._round_in_progress,
            )
            self._round_in_progress = None
        self._release_hold()

    # ------------------------------------------------------------------
    # rollback support (driven by CoordinatedRecovery)
    # ------------------------------------------------------------------
    def rollback_to_round(
        self, round_id: int, new_epoch: int, on_done: Callable[[], None]
    ) -> None:
        """Stall, reload round ``round_id`` from stable storage, restart.

        The stall (stable read of the full process image) is charged as
        blocked time: this is coordinated checkpointing's intrusion on
        processes that did not fail.
        """
        node = self.node
        was_live = node.is_live
        if was_live:
            node.block()
        self.abort_round()

        def loaded(image: Optional[bytes]) -> None:
            if image is None:
                raise RuntimeError(
                    f"node {node.node_id} has no snapshot for round {round_id}"
                )
            record = decode_image(image)  # a fresh copy: adopted below
            node.apply_snapshot(
                record["app_state"], record["send_seqnos"], record["delivered_ids"]
            )
            self.sent_count = record["sent_count"]
            self.recv_count = record["recv_count"]
            self.epoch = new_epoch
            self.committed_round = round_id
            # never reuse a round id that a snapshot already exists for
            self._next_round = max(self._next_round, round_id + 1)
            self._committed_count = record["app_state"]["delivered_count"]
            # outputs from the rolled-back execution are void; they were
            # never released (that is the whole point)
            self._pending_outputs = [
                p for p in self._pending_outputs if p[3] < self._committed_count
            ]
            self._held_sends = []
            node.trace.record(
                node.sim.now, "snapshot", node.node_id, "rolled_back",
                round=round_id, epoch=new_epoch, covered=self._committed_count,
            )
            if was_live:
                node.unblock()
            # resume the cut's pending output under the new epoch
            for dst, payload, body in record["held_sends"]:
                self._send_now(dst, payload, body)
            # finish the recovery hand-off *before* draining: a
            # recovering node must be live again or the drained messages
            # would just be re-buffered
            on_done()
            self._drain_future_epoch()

        node.storage.read(f"round:{round_id}", node.config.state_bytes, loaded)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # round 0: the initial states form a trivially consistent cut,
        # whose pending output is exactly the workload's initial sends
        image = self._round_image(0, [
            (send.dst, send.payload, send.body_bytes)
            for send in self.node.app.initial_sends()
        ])
        # the round-0 image is on disk before the process launches
        self.node.storage.write_bootstrap("round:0", image)
        self.node.storage.write_bootstrap(f"committed:{self.node.node_id}", 0)
        self._written_rounds.add(0)
        if self._gc_enabled():
            # every node's committed marker is durably 0 at time zero
            self._durable_marks = {p: 0 for p in range(self.node.config.n)}
        super().on_start()

    def on_crash(self) -> None:
        self._pending_outputs = []
        self._round_counts = {0: 0}
        self._committed_count = 0
        self.sent_count = {}
        self.recv_count = {}
        self._holding = False
        self._held_sends = []
        self._hold_started_at = None
        self._hold_round = 0
        self._future_epoch = []
        self._round_in_progress = None
        self._counts = {}
        self._done = set()
        self.epoch = 0
        self.committed_round = 0
        # durable-mark knowledge is volatile (re-learned from cl_gc);
        # _written_rounds mirrors stable contents, which survive
        self._durable_marks = {}

    def restore_stable(self, on_done: Callable[[], None]) -> None:
        """Recover the committed-round marker (epoch comes from peers)."""

        def loaded(value: Any) -> None:
            self.committed_round = value or 0
            self._next_round = max(self._next_round, self.committed_round + 1)
            on_done()

        self.node.storage.read(f"committed:{self.node.node_id}", 8, loaded)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data.update(
            pending_outputs=len(self._pending_outputs),
            rounds_committed=self.rounds_committed,
            rounds_aborted=self.rounds_aborted,
            hold_time_total=self.hold_time_total,
            stale_ctl_dropped=self.stale_ctl_dropped,
            epoch=self.epoch,
            committed_round=self.committed_round,
            rounds_reclaimed=self.rounds_reclaimed,
        )
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoordinatedCheckpointing(every={self.snapshot_every})"
