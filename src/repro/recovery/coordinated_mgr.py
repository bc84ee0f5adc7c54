"""Recovery driver for coordinated checkpointing.

Any single failure rolls the *whole system* back: the restarted process
queries every live peer for its latest committed snapshot round and its
epoch, picks the newest round reported (a round commits once every
snapshot of it is durable, and outputs released under it must stay
released) and a fresh epoch, and broadcasts the rollback.  Every
process -- failed or not -- then stalls through a full stable-storage restore and loses all work
since the snapshot.  This maximal intrusion is the foil for the paper's
non-blocking algorithm in experiment E7.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.net.network import Message
from repro.recovery.base import RecoveryManager


class CoordinatedRecovery(RecoveryManager):
    """Global rollback to the last committed snapshot round."""

    name = "coordinated"

    def __init__(self) -> None:
        super().__init__()
        self._collecting = False
        self._expected: Set[int] = set()
        self._replies: Dict[int, Dict[str, Any]] = {}
        #: highest rollback epoch observed anywhere; guarantees that two
        #: overlapping rollbacks pick strictly increasing epochs
        self._max_seen_epoch = 0
        #: a rollback broadcast that arrived while we were recovering:
        #: adopted right after our own rollback applies
        self._pending_rollback: Optional[Dict[str, int]] = None

    def on_crash(self) -> None:
        super().on_crash()
        self._collecting = False
        self._expected.clear()
        self._replies.clear()
        self._pending_rollback = None

    # ------------------------------------------------------------------
    # recovering side
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        # recovery epoch (distinct from the protocol's *rollback* epoch):
        # the incarnation counter, strictly monotone across episodes
        self.begin_epoch(self.node.incarnation)
        self._collecting = True
        self._replies.clear()
        self._expected = {
            p for p in self.peers if not self.node.detector.is_suspected(p)
        }
        self.trace("rollback_query", expected=sorted(self._expected))
        self.broadcast_control(self.peers, "rollback_query", body_bytes=8)
        self._check_replies()

    def _check_replies(self) -> None:
        if not self._collecting:
            return
        if any(p not in self._replies for p in self._expected):
            return
        self._collecting = False
        rounds = [r["committed_round"] for r in self._replies.values()]
        rounds.append(self.node.protocol.committed_round)
        epochs = [r["rollback_epoch"] for r in self._replies.values()]
        epochs.append(self.node.protocol.epoch)
        epochs.append(self._max_seen_epoch)
        target = max(rounds)
        new_epoch = max(epochs) + 1
        self._max_seen_epoch = new_epoch
        self.trace("rollback_decision", round=target, rollback_epoch=new_epoch,
                   epoch=self.epoch)
        # NB the *recovery* epoch rides along under "epoch" (injected by
        # send_control); the rollback generation is "rollback_epoch"
        self.broadcast_control(
            self.peers,
            "rollback",
            {"round": target, "rollback_epoch": new_epoch},
            body_bytes=16,
        )
        self.node.mark_replay_start()
        self.node.protocol.rollback_to_round(target, new_epoch, self._rolled_back)

    def _rolled_back(self) -> None:
        pending = self._pending_rollback
        if pending is not None and pending["epoch"] > self.node.protocol.epoch:
            # another failure's rollback superseded ours mid-recovery;
            # adopt it before going live
            self._pending_rollback = None
            self.trace("adopt_rollback", **pending)
            self.node.protocol.rollback_to_round(
                pending["round"], pending["epoch"], self._rolled_back
            )
            return
        self._pending_rollback = None
        self.trace(
            "complete", delivered=self.node.app.delivered_count, epoch=self.epoch
        )
        self.epoch = 0
        self.node.complete_recovery()

    # ------------------------------------------------------------------
    # control messages
    # ------------------------------------------------------------------
    def on_control(self, msg: Message) -> None:
        if msg.mtype == "rollback_query":
            if self.stale_epoch(msg):
                return  # query from a dead recovery episode
            # report the highest epoch *seen*, not merely applied: another
            # rollback may still be reloading state when this query lands,
            # and the decider must pick a strictly newer epoch
            self.send_control(
                msg.src,
                "rollback_reply",
                {
                    "committed_round": self.node.protocol.committed_round,
                    "epoch": (msg.payload or {}).get("epoch", 0),
                    "rollback_epoch": max(
                        self.node.protocol.epoch, self._max_seen_epoch
                    ),
                },
                body_bytes=16,
            )
        elif msg.mtype == "rollback_reply":
            if self.stale_epoch(msg, expected=self.epoch):
                return  # reply to a dead episode's query
            self._max_seen_epoch = max(
                self._max_seen_epoch, msg.payload["rollback_epoch"]
            )
            if self._collecting:
                self._replies[msg.src] = msg.payload
                self._check_replies()
        elif msg.mtype == "rollback":
            if self.stale_epoch(msg):
                return  # a dead episode's rollback decision
            rollback_epoch = msg.payload["rollback_epoch"]
            self._max_seen_epoch = max(self._max_seen_epoch, rollback_epoch)
            if self.node.is_recovering:
                pending = {
                    "round": msg.payload["round"],
                    "epoch": rollback_epoch,
                }
                if (
                    self._pending_rollback is None
                    or pending["epoch"] > self._pending_rollback["epoch"]
                ):
                    self._pending_rollback = pending
            elif rollback_epoch > self.node.protocol.epoch:
                self.node.protocol.rollback_to_round(
                    msg.payload["round"], rollback_epoch, lambda: None
                )

    # ------------------------------------------------------------------
    def on_peer_status(self, node_id: int, status: str) -> None:
        if status == "down":
            if self._collecting:
                self._expected.discard(node_id)
                self._check_replies()
            elif self.node.is_live:
                # a failure aborts any snapshot round in progress
                self.node.protocol.abort_round()

