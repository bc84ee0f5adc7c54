"""The blocking recovery baseline ("optimized for low communication").

This is the comparator from the paper's evaluation: "For the purpose of
comparison, we also implemented a prototype of a blocking recovery
algorithm.  In this algorithm, live processes block while recovery takes
place."

Its message pattern is the minimal one -- the recovering process queries
every live process directly (no sequencer round-trip, no incarnation
round, no leader handoff): one request broadcast, one reply each, one
completion broadcast.  The costs land elsewhere, exactly as the paper
describes for this class of protocol:

* every live process **blocks application processing** from the moment
  it receives the recovery request until all outstanding recoveries (and
  all suspected failures) have resolved -- the conservative regime that
  keeps the gathered snapshot trivially consistent in the presence of
  failures during recovery;
* every live process must **synchronously record its reply on stable
  storage before sending it** (the behaviour the paper attributes to
  Manetho-style recovery), adding a stable-storage stall to both the
  live process and the recovering process's critical path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.net.network import Message
from repro.protocols.base import Depinfo
from repro.recovery.base import RecoveryManager, merge_depinfo


class BlockingRecovery(RecoveryManager):
    """Message-optimal but intrusive recovery for the FBL family."""

    name = "blocking"

    #: delay before re-broadcasting the gather when the merged depinfo
    #: still has a replay gap (a counted determinant copy in flight)
    GATHER_RETRY_DELAY = 0.05
    #: bounded retries; a *genuinely* lost determinant (> f failures)
    #: must still surface as the replay engine's hard error
    MAX_GATHER_RETRIES = 50

    def __init__(self) -> None:
        super().__init__()
        # recovering side
        self._collecting = False
        self._expected: Set[int] = set()
        self._replies: Dict[int, Depinfo] = {}
        self._gather_retries = 0
        # live side
        self._active_recoveries: Set[int] = set()
        self.sync_reply_writes = 0

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self._collecting = False
        self._expected.clear()
        self._replies.clear()
        self._gather_retries = 0
        self._active_recoveries.clear()

    # ------------------------------------------------------------------
    # recovering side
    # ------------------------------------------------------------------
    def begin_recovery(self) -> None:
        # the incarnation counter is this node's episode epoch: strictly
        # monotone across its episodes, so late replies to a dead
        # episode's gather are rejected by the epoch check
        if self.epoch != self.node.incarnation:
            self.begin_epoch(self.node.incarnation)
        self._collecting = True
        self._replies.clear()
        self._expected = {
            p for p in self.peers if not self.node.detector.is_suspected(p)
        }
        self.trace("recovery_request_broadcast", expected=sorted(self._expected))
        self.broadcast_control(self.peers, "recovery_request", body_bytes=16)
        self._check_done()

    def _check_done(self) -> None:
        if not self._collecting:
            return
        if any(p not in self._replies for p in self._expected):
            return
        self._collecting = False
        merged_wire = merge_depinfo(
            [*self._replies.values(), self.node.protocol.local_depinfo_wire()])
        missing = self._replay_gap(merged_wire[0])
        if missing and self._gather_retries < self.MAX_GATHER_RETRIES:
            # A receipt order this replay needs is not in any reply.  On
            # a faulty network that usually means a counted determinant
            # copy is still in flight to a live host (FBL counts the
            # destination at send time); it will be absorbed on arrival,
            # so gather again after a delay rather than hand a known
            # gap to the replay engine.
            self._gather_retries += 1
            self.trace(
                "gather_retry",
                attempt=self._gather_retries,
                missing=missing[:4],
            )
            inc = self.node.incarnation
            self.node.sim.schedule(
                self.GATHER_RETRY_DELAY,
                self._retry_gather,
                inc,
                label=f"recovery.gather_retry:{self.node.node_id}",
            )
            return
        self.node.mark_replay_start()
        self.trace("replay_handoff", determinants=len(merged_wire[0]))
        self.node.protocol.begin_replay(merged_wire)

    def _replay_gap(self, dets: List[tuple]) -> List[int]:
        """Receipt orders the replay will need but the gathered
        determinants lack."""
        me = self.node.node_id
        rsns = {item[3] for item in dets if item[2] == me}
        target = max(rsns, default=-1)
        start = self.node.app.delivered_count
        return [r for r in range(start, target + 1) if r not in rsns]

    def _retry_gather(self, incarnation: int) -> None:
        if not self.node.is_recovering or self.node.incarnation != incarnation:
            return  # crashed again since the retry was scheduled
        if self._collecting:
            return
        self.begin_recovery()

    def on_replay_complete(self) -> None:
        self.trace("complete", epoch=self.epoch)
        self.announce_complete(self.peers)
        self.epoch = 0
        self.node.complete_recovery()

    # ------------------------------------------------------------------
    # control messages
    # ------------------------------------------------------------------
    def on_control(self, msg: Message) -> None:
        if msg.mtype == "recovery_request":
            self._on_recovery_request(msg)
        elif msg.mtype == "recovery_reply":
            self._on_recovery_reply(msg)
        elif msg.mtype == "recovery_complete":
            self._on_recovery_complete(msg)

    def _on_recovery_request(self, msg: Message) -> None:
        if self.stale_epoch(msg):
            return  # a dead episode's request must not block this node
        self.trace("recovery_request_received", requester=msg.src)
        self._active_recoveries.add(msg.src)
        if self.node.is_recovering:
            self.node.protocol.request_retransmissions_from(msg.src)
        if not self.node.is_recovering:
            # The defining intrusion: stop application progress until the
            # recovery (and any concurrent failure) resolves.
            self.node.block()
        # On the reliable transport, messages queued behind the block
        # have arrived at this host and their senders already count it
        # toward f+1 replication, so the reply must include their
        # piggybacked determinants (on the raw network the window is
        # sub-millisecond and the seed's delivered-state-only reply is
        # kept byte-identical).
        if self.node.network.transport is not None:
            self.node.protocol.absorb_piggybacks(self.node.blocked_app_messages())
        wire = self.node.protocol.local_depinfo_wire()
        requester = msg.src
        request_epoch = (msg.payload or {}).get("epoch", 0)
        self.sync_reply_writes += 1

        def send_reply() -> None:
            # the synchronous write has completed; only now may the
            # reply leave this host (the blocking algorithm's contract)
            self.trace("reply_durable", requester=requester, determinants=len(wire[0]))
            self.send_control(
                requester,
                "recovery_reply",
                {"wire": wire, "epoch": request_epoch},
                body_bytes=32 * len(wire[0]),
            )

        # Synchronous stable write of the reply before it may be sent.
        self.node.storage.write(
            f"recovery_reply:{requester}:{self.node.sim.now}",
            wire,
            size_bytes=max(64, 32 * len(wire[0])),
            on_done=send_reply,
            stall_node=self.node.node_id,
        )

    def _on_recovery_reply(self, msg: Message) -> None:
        if self.stale_epoch(msg, expected=self.epoch):
            return  # reply to a dead episode's gather
        self._replies[msg.src] = msg.payload["wire"]
        self._check_done()

    def _on_recovery_complete(self, msg: Message) -> None:
        if self.stale_epoch(msg):
            return  # a dead episode's completion must not unblock us
        self._active_recoveries.discard(msg.src)
        current = self.node.incvector.get(msg.src, 0)
        self.node.incvector[msg.src] = max(current, msg.payload["incarnation"])
        if self.node.is_recovering:
            self.node.protocol.request_retransmissions_from(msg.src)
        elif self.node.is_live:
            self.node.protocol.on_peer_recovered(
                msg.src, msg.payload.get("through", -1))
        self._maybe_unblock()

    # ------------------------------------------------------------------
    # detector events
    # ------------------------------------------------------------------
    def on_peer_status(self, node_id: int, status: str) -> None:
        if status == "down":
            if self._collecting:
                # A process we were waiting on died; proceed without it.
                self._expected.discard(node_id)
                self._check_done()
        else:
            self._maybe_unblock()

    def _maybe_unblock(self) -> None:
        """Unblock only when no recovery or suspected failure is pending.

        Keeping live processes stalled across the *detection and restore*
        of any concurrent failure is what produces the paper's E2 numbers
        (live processes blocked for the full ~5 s the second recovery
        takes).
        """
        if self._active_recoveries:
            return
        if self.node.detector.suspected_view():
            return
        self.node.unblock()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["sync_reply_writes"] = self.sync_reply_writes
        return stats
