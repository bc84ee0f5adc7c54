"""Optimistic message logging (Strom & Yemini style).

The receiver logs each delivery (determinant + data) to stable storage
*asynchronously*: the application never waits, so failure-free overhead
is low -- but a crash loses the un-flushed suffix of deliveries, and any
other process whose state depends on that lost suffix becomes an
**orphan** and must roll back too, possibly in a cascade.  This is
exactly the recovery-time complexity (and the intrusion on live
processes) that the paper's Section 6 contrasts with FBL/Manetho.

Dependency tracking uses per-message dependency vectors: every
application message carries ``{node: deliveries-at-send}``, receivers
fold it into their own vector, and a rollback announcement
``(p, recovered_count)`` makes every process with ``dep[p] >
recovered_count`` kill itself via a voluntary rollback.

Durable truncation: before rolling back, an orphan appends a truncate
marker to its stable log so that a later replay stops before the
invalidated suffix even if the in-memory constraint is lost.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.causality.determinant import Determinant
from repro.net.network import Message, MessageKind
from repro.protocols.base import LogBasedProtocol
from repro.storage.checkpoint import decode_image, encode_image

#: Modelled on-disk size of a log record beyond the message body.
LOG_RECORD_OVERHEAD = 48


class OptimisticLogging(LogBasedProtocol):
    """Asynchronous receiver logging with orphan rollbacks."""

    name = "optimistic"
    supported_recovery = ("optimistic",)
    requests_retransmissions = False
    #: keep every durable checkpoint: the newest one may be orphaned by
    #: a peer's rollback, and the restart then falls back to an earlier
    #: line (see restore_stable)
    retain_checkpoint_history = True

    def __init__(self) -> None:
        super().__init__()
        #: transitive dependency vector: node -> (incarnation, index) of
        #: the highest state interval of that node this process's state
        #: depends on.  Incarnations disambiguate pre- and post-rollback
        #: intervals (Strom & Yemini's state-interval indices).
        self.dep: Dict[int, Tuple[int, int]] = {}
        #: per-delivery dependency snapshots (volatile mirror of the log)
        self._dep_history: List[Dict[int, int]] = []
        self._acked: Set[Tuple[int, int]] = set()
        self.async_log_writes = 0
        self.orphan_rollbacks = 0
        self.orphan_messages_discarded = 0
        #: constraints learned from announcements while recovering
        self._replay_constraints: Dict[int, int] = {}
        #: known rollback announcements: peer -> (incarnation, bound);
        #: used to discard in-flight *orphan messages* whose dependency
        #: vectors reach into rolled-back state intervals
        self._recovery_bounds: Dict[int, Tuple[int, int]] = {}
        #: dep vectors of messages buffered during recovery
        self._buffered_deps: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
        #: True between deciding to roll back and the voluntary crash
        #: (waiting for the truncate marker to reach stable storage)
        self._rolling_back = False
        #: deliveries of ours durably logged so far (prefix property:
        #: the device completes writes in issue order)
        self._logged_upto = 0
        #: peer -> (incarnation, logged_upto) as last gossiped
        self._peer_stable: Dict[int, Tuple[int, int]] = {}
        #: peers waiting to hear that our durable prefix reached an index:
        #: querier -> highest index it needs
        self._stable_watchers: Dict[int, int] = {}
        #: Strom-Yemini incarnation end table: peer -> {new_inc: bound},
        #: meaning peer's recovery into new_inc kept exactly the prefix
        #: [0, bound) of all earlier incarnations
        self._incarnation_ends: Dict[int, Dict[int, int]] = {}
        #: our own end table {inc: recovered_count}, persisted in the
        #: stable log so it survives our crashes and can be served to
        #: peers whose knowledge has gaps
        self._own_ends: Dict[int, int] = {}

    def _log_name(self) -> str:
        return f"optlog:{self.node.node_id}"

    # ------------------------------------------------------------------
    # failure-free path
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
        dep = dict(self.dep)
        dep[node.node_id] = (node.incarnation, node.app.delivered_count)
        node.network.send(
            Message(
                src=node.node_id,
                dst=dst,
                kind=MessageKind.APPLICATION,
                mtype="app",
                payload={
                    "data": payload,
                    "dep": dep,
                    # gossip how much of our log is durable, for peers'
                    # output-commit decisions (Strom-Yemini commitability)
                    "stable": (node.incarnation, self._logged_upto),
                },
                body_bytes=body_bytes + 8 * len(dep) + 8,
                incarnation=node.incarnation,
                ssn=ssn,
            )
        )

    def _note_peer_stable(self, peer: int, stable) -> None:
        if stable is None:
            return
        stable = tuple(stable)
        if stable > self._peer_stable.get(peer, (-1, -1)):
            self._peer_stable[peer] = stable
            self._check_pending_outputs()

    def on_app_message(self, msg: Message) -> None:
        self._note_peer_stable(msg.src, msg.payload.get("stable"))
        if self._rolling_back:
            # doomed state: deliveries here would land in the log after
            # the truncate marker and pollute the replay
            return
        key = (msg.src, msg.ssn)
        if key in self.node.delivered_ids:
            return
        self._deliver_optimistic(
            msg.src, msg.ssn, msg.payload["data"], msg.payload.get("dep", {}),
            msg.body_bytes,
        )

    def _message_is_orphan(self, dep: Dict[int, int]) -> bool:
        """Does the message's dependency vector reach rolled-back state?

        Such a message was sent by (or causally descends from) a state
        interval that no longer exists; delivering it would re-orphan
        this process, so it is discarded.  Its content, if still
        meaningful, is regenerated by the sender's own rollback.
        """
        for peer, interval in dep.items():
            bound = self._recovery_bounds.get(int(peer))
            if bound is not None and self._violates(tuple(interval), *bound):
                return True
        return False

    def note_recovery_bound(self, peer: int, peer_inc: int, bound: int) -> None:
        """Record a rollback announcement for orphan-message filtering
        and for the output-commit end table."""
        current = self._recovery_bounds.get(peer)
        if current is None or peer_inc > current[0]:
            self._recovery_bounds[peer] = (peer_inc, bound)
        self._incarnation_ends.setdefault(peer, {})[peer_inc] = bound
        self._check_pending_outputs()

    def _deliver_optimistic(
        self,
        sender: int,
        ssn: int,
        data: Dict[str, Any],
        dep: Dict[int, int],
        body_bytes: int,
        relog: bool = True,
    ) -> None:
        node = self.node
        if self._message_is_orphan(dep):
            self.orphan_messages_discarded += 1
            node.trace.record(
                node.sim.now, "recovery", node.node_id, "orphan_message_discarded",
                sender=sender, ssn=ssn,
            )
            return
        # fold the sender's dependency vector into ours *before* delivery
        # (lexicographic max: a newer incarnation dominates any index)
        for peer, interval in dep.items():
            peer = int(peer)
            interval = tuple(interval)
            if interval > self.dep.get(peer, (-1, -1)):
                self.dep[peer] = interval
        rsn = node.app.delivered_count
        det = Determinant(sender, ssn, node.node_id, rsn)
        self.det_log.add(det, logged_at=(node.node_id,))
        self._dep_history.append(dict(self.dep))
        sends = node.deliver_app(sender, ssn, data)
        if relog:
            # asynchronous log write: the application does NOT wait
            self.async_log_writes += 1
            node.storage.log_append(
                self._log_name(),
                ("entry", det, encode_image(data, "a logged payload"), dict(self.dep),
                 body_bytes),
                body_bytes + LOG_RECORD_OVERHEAD,
                on_done=lambda: self._entry_logged(sender, ssn),
            )
        for send in sends:
            self.send_app(send.dst, send.payload, send.body_bytes)
        node.maybe_checkpoint()

    def _entry_logged(self, sender: int, ssn: int) -> None:
        self._logged_upto += 1
        self.node.trace.record(
            self.node.sim.now, "protocol", self.node.node_id, "log_commit",
            index=self._logged_upto,
        )
        self._check_pending_outputs()
        satisfied = [
            peer for peer, need in self._stable_watchers.items()
            if self._logged_upto >= need
        ]
        for peer in satisfied:
            del self._stable_watchers[peer]
            self._send_stable_info(peer)
        self._send_msg_ack(sender, ssn)

    def _send_stable_info(self, dst: int) -> None:
        node = self.node
        if not node.network.is_registered(node.node_id):
            return
        node.network.send(
            Message(
                src=node.node_id,
                dst=dst,
                kind=MessageKind.PROTOCOL,
                mtype="stable_info",
                payload={
                    "stable": (node.incarnation, self._logged_upto),
                    "ends": dict(self._own_ends),
                },
                body_bytes=16 + 8 * len(self._own_ends),
                incarnation=node.incarnation,
            )
        )

    def _send_msg_ack(self, sender: int, ssn: int) -> None:
        node = self.node
        if not node.network.is_registered(node.node_id):
            return  # crashed while the async write was in flight
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

    def on_checkpoint(self, checkpoint: "Checkpoint") -> None:
        """Compact checkpoint-covered log entries (opt-in).

        Unlike the pessimistic/Manetho truncation this is gated behind
        :class:`~repro.core.config.StorageRealismConfig.log_compaction`,
        because dropping entries shrinks the restart's log read and
        therefore changes run timing.  Recovery-control markers ("end",
        "truncate") are never dropped -- a replay still needs them to
        reject resurrected suffixes.
        """
        realism = self.node.config.storage_realism
        if realism is None or not realism.log_compaction:
            return
        count = checkpoint.delivered_count
        if count == 0:
            return
        dropped = self.node.storage.log_truncate_head(
            self._log_name(),
            lambda entry: entry[0] != "entry" or entry[1].rsn >= count,
            size_of=lambda entry: entry[4] + LOG_RECORD_OVERHEAD,
        )
        if dropped:
            self.node.trace.record(
                self.node.sim.now, "gc", self.node.node_id, "log_compacted",
                dropped=dropped, covered=count,
            )

    def on_app_message_during_recovery(self, msg: Message) -> None:
        self._buffer_message(msg.src, msg.ssn, msg.payload["data"])
        self._buffered_deps[(msg.src, msg.ssn)] = msg.payload.get("dep", {})

    def on_protocol_message(self, msg: Message) -> None:
        if msg.mtype == "msg_ack":
            self._acked.add((msg.src, msg.payload["ssn"]))
            return
        if msg.mtype == "stable_query":
            need = msg.payload.get("need", 0)
            if self._logged_upto < need:
                # remember the querier; notify once the log catches up
                current = self._stable_watchers.get(msg.src, -1)
                self._stable_watchers[msg.src] = max(current, need)
            self._send_stable_info(msg.src)
            return
        if msg.mtype == "stable_info":
            for inc, bound in msg.payload.get("ends", {}).items():
                self._incarnation_ends.setdefault(msg.src, {})[int(inc)] = bound
            self._note_peer_stable(msg.src, msg.payload["stable"])
            self._check_pending_outputs()
            return
        if msg.mtype == "retransmit_data":
            key = (msg.src, msg.payload["ssn"])
            if self.node.is_recovering:
                self._buffer_message(msg.src, msg.payload["ssn"], msg.payload["data"])
                self._buffered_deps[key] = msg.payload.get("dep", {})
                return
            if key in self.node.delivered_ids:
                return
            self._deliver_optimistic(
                msg.src,
                msg.payload["ssn"],
                msg.payload["data"],
                msg.payload.get("dep", {}),
                msg.body_bytes,
            )
            return
        super().on_protocol_message(msg)

    # ------------------------------------------------------------------
    # crash / restore
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self.dep = {}
        self._dep_history = []
        self._acked.clear()
        self._replay_constraints = {}
        self._recovery_bounds = {}
        self._buffered_deps = {}
        self._rolling_back = False
        self._logged_upto = 0
        self._peer_stable = {}
        self._stable_watchers = {}
        self._incarnation_ends = {}
        self._own_ends = {}

    def checkpoint_extra(self) -> Dict[str, Any]:
        return {
            "send_log": self.send_log.to_state(),
            "acked": self._acked,
            "dep": self.dep,
            "dep_history": self._dep_history,
        }

    def on_restore(self, checkpoint: "Checkpoint", state: Dict[str, Any]) -> None:
        self.send_log.load_state(state["send_log"])
        self._acked = state["acked"]
        self.dep = state["dep"]
        self._dep_history = state["dep_history"]

    def restore_stable(self, on_done) -> None:
        """Read the log, apply truncate markers, stage the valid prefix.

        The staged log also reveals whether the checkpoint the node just
        restored is itself an **orphan**: a checkpoint taken after a
        delivery that a peer's later rollback invalidated freezes the
        orphaned state, and restarting from it would only send this
        process through another voluntary rollback -- forever, since the
        same checkpoint is restored every time (the livelock this method
        breaks).  When the restored dependency history violates a replay
        constraint learned from the durable truncate markers, the newest
        retained checkpoint whose history satisfies every constraint is
        read back instead (the bootstrap checkpoint, with no
        dependencies, always qualifies)."""

        def loaded(entries: list) -> None:
            staged: Dict[int, Tuple[Determinant, Dict[str, Any], Dict[int, int]]] = {}
            for entry in entries:
                if entry[0] == "end":
                    _tag, inc, count = entry
                    self._own_ends[int(inc)] = count
                    continue
                if entry[0] == "truncate":
                    _tag, at_rsn, incvector, bounds = entry
                    staged = {rsn: v for rsn, v in staged.items() if rsn < at_rsn}
                    for peer, inc in incvector.items():
                        current = self.node.incvector.get(int(peer), 0)
                        self.node.incvector[int(peer)] = max(current, inc)
                    for peer, (peer_inc, bound) in bounds.items():
                        self.note_recovery_bound(int(peer), peer_inc, bound)
                        self.note_constraint(int(peer), peer_inc, bound)
                else:
                    _tag, det, image, dep, _body = entry
                    staged[det.rsn] = (det, decode_image(image), dep)
            self._staged_log = staged
            if self._replay_constraints and self._history_violates(
                self._dep_history
            ):
                self._fall_back_to_clean_checkpoint(on_done)
                return
            on_done()

        self._staged_log: Dict[int, Tuple[Determinant, Dict[str, Any], Dict[int, int]]] = {}
        self.node.storage.log_read(self._log_name(), LOG_RECORD_OVERHEAD + 128, loaded)

    def _history_violates(self, dep_history) -> bool:
        """Does any retained delivery depend on a rolled-back interval?"""
        return any(
            self._violates(dep.get(peer), peer_inc, bound)
            for peer, (peer_inc, bound) in self._replay_constraints.items()
            for dep in dep_history
        )

    def _fall_back_to_clean_checkpoint(self, on_done) -> None:
        """Swap the orphaned restored line for the newest clean one."""
        node = self.node
        orphaned = node._restored_checkpoint
        candidate = None
        for checkpoint in reversed(node.checkpoints.durable_history):
            if checkpoint.checkpoint_id >= orphaned.checkpoint_id:
                continue
            if not self._history_violates(checkpoint.extra.get("dep_history", ())):
                candidate = checkpoint
                break
        if candidate is None:
            # bootstrap images carry no dependencies, so this means the
            # history was not retained (store built without it) -- keep
            # the restored line rather than crash the restart
            on_done()
            return
        node.trace.record(
            node.sim.now, "recovery", node.node_id, "orphan_checkpoint_skipped",
            from_id=orphaned.checkpoint_id, to_id=candidate.checkpoint_id,
            delivered=candidate.delivered_count,
        )
        def reapplied(checkpoint) -> None:
            node.apply_checkpoint(checkpoint)
            on_done()

        node.checkpoints.restore_line(candidate, reapplied)

    # ------------------------------------------------------------------
    # replay: the contiguous, constraint-respecting logged prefix
    # ------------------------------------------------------------------
    def begin_replay(self, depinfo_wire: List[Any]) -> None:
        node = self.node
        start = node.app.delivered_count
        rsn = start
        while rsn in self._staged_log:
            det, data, dep = self._staged_log[rsn]
            if any(
                self._violates(dep.get(peer), peer_inc, bound)
                for peer, (peer_inc, bound) in self._replay_constraints.items()
            ):
                break  # the rest of the log depends on a rolled-back state
            rsn += 1
        target = rsn - 1
        node.trace.record(
            node.sim.now, "replay", node.node_id, "start",
            target_rsn=target, from_rsn=start,
        )
        for r in range(start, target + 1):
            det, data, dep = self._staged_log[r]
            # already durable: this is a replay of the log, not new data
            self._deliver_optimistic(det.sender, det.ssn, data, dep, 0, relog=False)
        self._staged_log = {}
        node.trace.record(
            node.sim.now, "replay", node.node_id, "done",
            delivered=node.app.delivered_count,
        )
        # everything replayed came from the durable log
        self._logged_upto = node.app.delivered_count
        # persist this recovery's end: peers with end-table gaps (they
        # were down during our announcement) can ask for it later
        self._own_ends[node.incarnation] = node.app.delivered_count
        node.storage.log_append(
            self._log_name(),
            ("end", node.incarnation, node.app.delivered_count),
            16,
        )
        node.recovery.on_replay_complete()
        # leftover buffered in-flight traffic
        leftovers = [k for k in self._replay_buffer_order if k in self._replay_buffer]
        self._replay_buffer_order = []
        for src, ssn in leftovers:
            data = self._replay_buffer.pop((src, ssn))
            dep = self._buffered_deps.pop((src, ssn), {})
            if (src, ssn) not in node.delivered_ids:
                self._deliver_optimistic(src, ssn, data, dep, 0)
        if self._pending_outputs:
            for output_id, _payload, _requested in self._pending_outputs:
                self._flush_for_output(output_id[1])
            self._check_pending_outputs()

    # ------------------------------------------------------------------
    # output commit: Strom-Yemini commitability
    # ------------------------------------------------------------------
    def _deps_at(self, rsn: int) -> Dict[int, Tuple[int, int]]:
        """The dependency vector as of delivery ``rsn`` -- an output's
        commitability depends on its causal past at emission, not on
        whatever the process went on to do afterwards."""
        if 0 <= rsn < len(self._dep_history):
            return self._dep_history[rsn]
        return self.dep

    def _dep_interval_stable(self, peer: int, inc: int, idx: int) -> bool:
        """Is interval ``(inc, idx)`` of ``peer`` durably logged *and*
        guaranteed to survive every recovery of ``peer`` we know of?

        * same incarnation as the peer's last gossip: the durable prefix
          must cover it;
        * older incarnation: it survives iff it lies below the bound of
          **every** later recovery (the Strom-Yemini incarnation end
          table), and the surviving prefix is durable by construction
          (it was replayed from the log).  We must know the bound of
          every intervening incarnation to say yes.
        """
        known_inc, known_upto = self._peer_stable.get(peer, (-1, -1))
        if inc == known_inc:
            # interval ``idx`` is the state after idx deliveries, i.e.
            # log entries 0..idx-1: durable once logged_upto >= idx
            return idx <= known_upto
        if inc > known_inc:
            return False  # our knowledge of the peer's log is behind
        ends = self._incarnation_ends.get(peer, {})
        later_bounds = [b for inc2, b in ends.items() if inc < inc2 <= known_inc]
        if len(later_bounds) < known_inc - inc:
            return False  # an intervening recovery's bound is unknown
        # interval ``idx`` is the state after idx deliveries; a recovery
        # to ``bound`` deliveries preserves exactly the intervals <= bound
        # (mirror of the orphan condition ``idx > bound``)
        return idx <= min(later_bounds)

    def _output_ready_for(self, rsn: int) -> bool:
        """Our causal past up to delivery ``rsn`` must be durably logged
        and survive any recovery: our own deliveries flushed through
        ``rsn``, and every dependency interval stable per
        :meth:`_dep_interval_stable`.  Because dependency vectors are
        transitive and logs have the prefix property, this covers the
        *entire* causal past (Strom & Yemini's committability)."""
        node = self.node
        if self._logged_upto < rsn + 1:
            return False
        for peer, (inc, idx) in self._deps_at(rsn).items():
            if peer == node.node_id:
                continue
            if not self._dep_interval_stable(peer, inc, idx):
                return False
        return True

    def _flush_for_output(self, rsn: int) -> None:
        """Ask dependency peers where their durable prefix stands; they
        reply now and again once their log reaches what we need."""
        node = self.node
        for peer, (_inc, idx) in sorted(self._deps_at(rsn).items()):
            if peer == node.node_id:
                continue
            node.network.send(
                Message(
                    src=node.node_id,
                    dst=peer,
                    kind=MessageKind.PROTOCOL,
                    mtype="stable_query",
                    payload={"need": idx},
                    body_bytes=8,
                    incarnation=node.incarnation,
                )
            )

    # ------------------------------------------------------------------
    # orphan handling
    # ------------------------------------------------------------------
    @staticmethod
    def _violates(interval, peer_inc: int, bound: int) -> bool:
        """Does a dependency on ``interval`` of a peer conflict with the
        peer having recovered to ``bound`` in incarnation ``peer_inc``?

        Only dependencies on *earlier* incarnations beyond the recovered
        prefix are orphaned; dependencies on the new incarnation are on
        post-recovery state and perfectly valid.
        """
        if interval is None:
            return False
        inc, idx = interval
        return inc < peer_inc and idx > bound

    def note_constraint(self, peer: int, peer_inc: int, bound: int) -> None:
        """A rollback announcement arrived while we were recovering."""
        current = self._replay_constraints.get(peer)
        if current is None or (peer_inc, bound) > current:
            self._replay_constraints[peer] = (peer_inc, bound)
        self.note_recovery_bound(peer, peer_inc, bound)

    def is_orphan_of(self, peer: int, peer_inc: int, bound: int) -> bool:
        """Does this process's state depend on a rolled-back interval?

        The current vector alone is not enough: the fold is a
        lexicographic max, so a message carrying the peer's *new*
        incarnation that outraces the rollback announcement overwrites
        the old-incarnation entry, and the announcement would find a
        clean vector on a process whose retained deliveries still
        depend on the rolled-back interval.  The per-delivery history
        keeps the evidence, so scan it too.
        """
        if self._violates(self.dep.get(peer), peer_inc, bound):
            return True
        return any(
            self._violates(dep.get(peer), peer_inc, bound)
            for dep in self._dep_history
        )

    def rollback_as_orphan(self, peer: int, peer_inc: int, bound: int) -> None:
        """Durably truncate the invalid suffix, then kill ourselves.

        The truncate marker (with the current incvector and the known
        recovery bounds) must be on stable storage *before* the voluntary
        crash -- a crash aborts in-flight writes, and losing the marker
        would let a later replay resurrect the invalidated suffix.  While
        the marker write is in flight, application deliveries are
        suppressed so nothing lands in the log after it.
        """
        if self._rolling_back:
            return  # already on the way down; bounds were recorded
        node = self.node
        self.orphan_rollbacks += 1
        node.metrics.orphan_rollbacks += 1
        stop_rsn = 0
        for rsn, dep in enumerate(self._dep_history):
            if self._violates(dep.get(peer), peer_inc, bound):
                stop_rsn = rsn
                break
        else:
            stop_rsn = len(self._dep_history)
        node.trace.record(
            node.sim.now, "recovery", node.node_id, "orphan_rollback",
            of=peer, bound=bound, stop_rsn=stop_rsn,
        )
        self._rolling_back = True
        bounds = {p: list(b) for p, b in self._recovery_bounds.items()}
        node.storage.log_append(
            self._log_name(),
            ("truncate", stop_rsn, dict(node.incvector), bounds),
            64,
            on_done=node.voluntary_rollback,
        )

    def on_peer_recovered(self, peer: int) -> None:
        node = self.node
        if self._pending_outputs:
            for output_id, _payload, _requested in self._pending_outputs:
                self._flush_for_output(output_id[1])
            self._check_pending_outputs()
        for ssn, (data, size) in self.send_log.messages_for(peer):
            if (peer, ssn) in self._acked:
                continue
            dep = dict(self.dep)
            dep[node.node_id] = (node.incarnation, node.app.delivered_count)
            node.network.send(
                Message(
                    src=node.node_id,
                    dst=peer,
                    kind=MessageKind.PROTOCOL,
                    mtype="retransmit_data",
                    payload={"ssn": ssn, "data": data, "dep": dep},
                    body_bytes=size,
                    incarnation=node.incarnation,
                    ssn=ssn,
                )
            )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data.update(
            async_log_writes=self.async_log_writes,
            orphan_rollbacks=self.orphan_rollbacks,
            orphan_messages_discarded=self.orphan_messages_discarded,
        )
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "OptimisticLogging()"
