"""The paper's new non-blocking recovery algorithm (Section 3).

The algorithm, from Section 3.4 (steps 1-3 run at every recovering
process; 4-6 at the leader)::

    1. Restore state;
    2. incarnation <- incarnation + 1;
    3. ord <- ord + 1;
    4. for each process q in R do incvector[q] <- q.incarnation;
    5. for each process q in L do
           if q failed then goto 4;
           depinfo <- q.depinfo; q.incvector <- incvector;
    6. for each process q in R do q.depinfo <- depinfo;

Key properties reproduced here:

* **Live processes never block** and never refuse application messages;
  their only duty is a single in-memory ``depinfo`` reply (no stable
  storage write).
* Each live process learns the leader's ``incvector`` with the request
  and thereafter rejects stale messages from pre-failure incarnations,
  so the gathered snapshot stays consistent.
* **If the leader fails, the next process in ordinal order takes over**
  (the deterministic ``CanLead`` predicate: the unserved member of R
  holding the minimum unserved ordinal).

On top of the paper's algorithm this implementation makes recovery
robust under *churn* (view-change machinery in the style of
viewstamped-replication recovery):

* Every episode runs under a **recovery epoch** (the sequencer-granted
  ordinal, system-wide monotone); all control messages carry it and
  stale-epoch messages are dropped, so a dead episode can never corrupt
  a later one.
* The leader **persists per-round gather progress** at the never-failing
  sequencer (round number, the gathered incvector, each depinfo reply
  as it arrives).  A leader failure triggers a **handoff**: the
  successor fetches the persisted state and *resumes the round from the
  last completed phase* instead of restarting from scratch.
* A live process P failing in the depinfo phase voids the reply it
  owed, and makes **stale every request sent before its failure was
  detected**, answered or not: its reply may have been built before the
  deliveries P made last, however late it arrives.  P rejoins R and is
  absorbed into the same round from its join announcement, and exactly
  the stale requests are sent again -- the part of the paper's
  ``goto 4`` that recovery needs, without redoing the incarnation
  phase.  Each request carries an id its reply echoes, so a reply to a
  superseded request is dropped.  A handoff treats every adopted reply
  as stale for a process that is still to rejoin, and an absorb's
  re-requests are persisted, so no handoff brings a stale reply back.
  A member of R re-crashing stales nothing: a recovering process
  delivers nothing.

The price is extra control messages (ordinal round-trip, incarnation
round, depinfo round and its re-requests, distribution, progress posts)
-- which is precisely the trade the paper argues has become cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set

from repro.net.network import Message
from repro.protocols.base import Depinfo
from repro.recovery.base import RecoveryManager, merge_depinfo

if TYPE_CHECKING:  # pragma: no cover - loaded where a poll starts
    from repro.sim.timers import PeriodicTimer

#: How often a waiting (non-leader) recovering process refreshes the
#: sequencer's active-recovery view.  Pure fallback against lost
#: completion announcements; does not affect the measured experiments.
STATUS_POLL_INTERVAL = 0.25


def member(ord_: int, incarnation: Optional[int], served: bool = False) -> Dict[str, Any]:
    """A ``known_recovering`` entry: one member of R, by its ordinal."""
    return {"ord": ord_, "incarnation": incarnation, "served": served}


class NonblockingRecovery(RecoveryManager):
    """Leader-based, non-blocking recovery for the FBL family."""

    name = "nonblocking"

    def __init__(self) -> None:
        super().__init__()
        self._gather_round = 0
        #: the last depinfo request id issued; ids are never reused
        self._ask_id = 0
        self._poll_timer: Optional[PeriodicTimer] = None
        self._round_span: Optional[int] = None
        self._forget()

    def _forget(self) -> None:
        """Drop every episode's state: a new manager, or its node crashed."""
        self.ord: Optional[int] = None
        self.role = "idle"  # idle | acquiring | waiting | leader
        self.phase = None  # leader: fetch | inc | depinfo | distribute
        #: node -> its :func:`member` entry
        self.known_recovering: Dict[int, Dict[str, Any]] = {}
        self._inc_replies: Dict[int, int] = {}
        self._depinfo_expected: Set[int] = set()
        self._depinfo_replies: Dict[int, Depinfo] = {}
        #: peer -> id of the last depinfo request sent to it; only the
        #: reply echoing that id is accepted
        self._asked: Dict[int, int] = {}
        #: failed live peer -> the last request id issued before its
        #: failure was detected: requests up to it are asked again when
        #: it is absorbed
        self._stale: Dict[int, int] = {}
        self._incvector: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self._stop_poll()
        if self._round_span is not None:
            self.node.trace.spans.end(
                self._round_span, self.node.sim.now, aborted=True
            )
            self._round_span = None
        self._forget()

    def begin_recovery(self) -> None:
        """Step 3: acquire the system-wide ordinal."""
        self.role = "acquiring"
        self.trace("ord_request")
        self.send_control(self.node.config.sequencer_id, "ord_request", body_bytes=8)

    # ------------------------------------------------------------------
    # control messages
    # ------------------------------------------------------------------
    def on_control(self, msg: Message) -> None:
        handler = getattr(self, f"_on_{msg.mtype}", None)
        if handler is not None:
            handler(msg)

    def _on_ord_reply(self, msg: Message) -> None:
        if self.role != "acquiring":
            return
        self.ord = msg.payload["ord"]
        # the ordinal is the episode's recovery epoch (already
        # system-wide monotone)
        self.begin_epoch(msg.payload.get("epoch", self.ord))
        for peer, entry in msg.payload["active"].items():
            if peer != self.node.node_id:
                self.known_recovering.setdefault(
                    peer, member(entry["ord"], None, entry["served"])
                )
        self.known_recovering[self.node.node_id] = member(self.ord, self.node.incarnation)
        self.role = "waiting"
        self.trace("ord_acquired", ord=self.ord, epoch=self.epoch)
        self.broadcast_control(
            self.peers,
            "join_recovery",
            {"ord": self.ord, "incarnation": self.node.incarnation},
            body_bytes=16,
        )
        self._evaluate_leadership()
        if self.role == "waiting":
            self._start_poll()

    def _on_join_recovery(self, msg: Message) -> None:
        if self.stale_epoch(msg):
            return
        self.known_recovering[msg.src] = member(
            msg.payload["ord"], msg.payload["incarnation"]
        )
        if self.node.is_recovering:
            # a sender we may be waiting on is reachable again
            self.node.protocol.request_retransmissions_from(msg.src)
        if self.role == "leader" and self.phase == "depinfo":
            # A process we were waiting on has come back: absorb it
            # into R without voiding the round.
            self._absorb_member(msg.src, msg.payload["incarnation"])
        elif self.role == "leader" and self.phase == "inc":
            # The paper's goto 4: absorb it into R and redo the gather.
            self._restart_gather("join")
        elif self.role == "waiting":
            self._evaluate_leadership()

    def _on_inc_request(self, msg: Message) -> None:
        if self.stale_epoch(msg):
            return
        if self.node.is_recovering:
            self.send_control(
                msg.src,
                "inc_reply",
                {
                    "round": msg.payload["round"],
                    "epoch": msg.payload.get("epoch", 0),
                    "incarnation": self.node.incarnation,
                },
                body_bytes=16,
            )

    def _on_inc_reply(self, msg: Message) -> None:
        if self.role != "leader" or self.phase != "inc":
            return
        if self.stale_epoch(msg, expected=self.epoch):
            return
        if msg.payload["round"] != self._gather_round:
            return
        self._inc_replies[msg.src] = msg.payload["incarnation"]
        entry = self.known_recovering.get(msg.src)
        if entry is not None:
            entry["incarnation"] = msg.payload["incarnation"]
        self._check_inc_done()

    def _on_depinfo_request(self, msg: Message) -> None:
        """Live side of step 5: reply in memory, update incvector, go on.

        This is the entire intrusion the new algorithm imposes on a live
        process: build one reply from volatile state.  No blocking, no
        synchronous stable-storage write, no embargo on application
        messages.
        """
        if self.stale_epoch(msg):
            return
        self.trace("depinfo_request_received", leader=msg.src)
        self._raise_incvector(msg.payload["incvector"])
        wire = self.node.protocol.local_depinfo_wire()
        # sent straight from volatile state, before any stable write: this
        # ordering IS the paper's no-blocking claim, so announce it
        self.trace("depinfo_reply_sent", leader=msg.src, determinants=len(wire[0]))
        self.send_control(
            msg.src,
            "depinfo_reply",
            {"ask": msg.payload["ask"], "epoch": msg.payload.get("epoch", 0), "wire": wire},
            body_bytes=32 * len(wire[0]),
        )

    def _on_depinfo_reply(self, msg: Message) -> None:
        if self.role != "leader" or self.phase != "depinfo":
            return
        if self.stale_epoch(msg, expected=self.epoch):
            return
        if msg.payload["ask"] != self._asked.get(msg.src):
            return  # not the reply to our last request to it
        if msg.src in self._depinfo_expected:
            self._depinfo_replies[msg.src] = msg.payload["wire"]
            self._post_progress(depinfo={msg.src: msg.payload["wire"]})
            self.trace(
                "depinfo_reply_accepted", src=msg.src, ask=msg.payload["ask"],
                round=self._gather_round, epoch=self.epoch,
            )
            self._check_depinfo_done()

    def _on_depinfo_distribute(self, msg: Message) -> None:
        """Step 6 at a non-leader member of R: take the snapshot, replay."""
        if self.stale_epoch(msg):
            return
        if not self.node.is_recovering or self.role not in ("waiting", "leader"):
            return
        mine = self.known_recovering.get(self.node.node_id)
        if mine is not None:
            if mine["served"]:
                return  # already replaying from an earlier distribution
            mine["served"] = True
        self._stop_poll()
        self._raise_incvector(msg.payload["incvector"])
        self.node.mark_replay_start()
        self.trace("replay_handoff", leader=msg.src)
        self.node.protocol.begin_replay(msg.payload["wire"])

    def _on_recovery_complete(self, msg: Message) -> None:
        if self.stale_epoch(msg):
            return
        self.known_recovering.pop(msg.src, None)
        self._raise_incvector({msg.src: msg.payload["incarnation"]})
        if self.node.is_recovering:
            self.node.protocol.request_retransmissions_from(msg.src)
        elif self.node.is_live:
            self.node.protocol.on_peer_recovered(
                msg.src, msg.payload.get("through", -1))
        if self.role == "waiting":
            self._evaluate_leadership()
        elif self.role == "leader":
            # a member that finished between our join announcement and
            # our inc_request left R without answering: stop waiting
            self._check_inc_done()

    def _on_leader_done(self, msg: Message) -> None:
        """The current leader finished its algorithm (distributed the
        depinfo); its recovery round no longer gates leadership.
        ``served`` maps peer -> the ordinal the leader served, so a late
        announcement from a dead round never retires a newer episode."""
        if self.stale_epoch(msg):
            return
        for peer, peer_ord in msg.payload["served"].items():
            if peer == self.node.node_id:
                # our own served flag means "depinfo in hand" and is set
                # only on actually receiving the distribution: if ours
                # was lost, staying unserved lets us take over as leader
                # and re-gather instead of waiting forever
                continue
            entry = self.known_recovering.get(peer)
            if entry is not None and entry["ord"] == peer_ord:
                entry["served"] = True
        if self.role == "waiting":
            self._evaluate_leadership()

    def _on_status_reply(self, msg: Message) -> None:
        if self.role != "waiting":
            return
        if self.stale_epoch(msg, expected=self.epoch):
            return
        active = msg.payload["active"]
        for peer in list(self.known_recovering):
            if peer != self.node.node_id and peer not in active:
                del self.known_recovering[peer]
        for peer, entry in active.items():
            if peer == self.node.node_id:
                continue  # own served flag is set by the distribute only
            known = self.known_recovering.get(peer)
            if known is not None and entry["served"]:
                known["served"] = True
        self._evaluate_leadership()

    def _on_gather_state_reply(self, msg: Message) -> None:
        """The persisted gather state arrived; hand off or start fresh."""
        if self.role != "leader" or self.phase != "fetch":
            return
        if self.stale_epoch(msg, expected=self.epoch):
            return
        mine = self.known_recovering.get(self.node.node_id)
        if mine is None or mine["served"]:
            return  # served by a concurrent leader while fetching
        state = msg.payload["gather"]
        if state is not None and self._adopt_gather(state):
            return
        self._start_gather()

    # ------------------------------------------------------------------
    # detector events
    # ------------------------------------------------------------------
    def on_peer_status(self, node_id: int, status: str) -> None:
        if status == "up":
            self.known_recovering.pop(node_id, None)
            if self.role == "waiting":
                self._evaluate_leadership()
            return
        # status == "down"
        if self.role == "leader":
            if self.phase == "depinfo" and node_id in self._depinfo_expected:
                # A live process failed mid-round.  It will rejoin R and
                # is absorbed -- with its fresh incarnation -- from its
                # join announcement; distribution waits for that join
                # (see _check_depinfo_done).
                self._live_failure(node_id)
            elif self.phase == "depinfo" and node_id in self.known_recovering:
                # A member of R re-crashed mid-round; drop only its
                # contribution -- it rejoins with a fresh ordinal.  It
                # delivered nothing since its last crash, so no reply
                # goes stale.
                self.known_recovering.pop(node_id, None)
                self._inc_replies.pop(node_id, None)
                self._invalidate_reply(node_id, "member_recrash")
            elif self.phase == "inc" and node_id in self.known_recovering:
                # A member of R re-crashed before answering; it will
                # rejoin with a fresh ordinal.
                self.known_recovering.pop(node_id, None)
                self._restart_gather("member_recrash")
            elif self.phase == "fetch" and node_id in self.known_recovering:
                self.known_recovering.pop(node_id, None)
        elif self.role == "waiting":
            entry = self.known_recovering.pop(node_id, None)
            if entry is not None:
                self._evaluate_leadership()

    # ------------------------------------------------------------------
    # leader machinery
    # ------------------------------------------------------------------
    def can_lead(self, candidate: int) -> bool:
        """The deterministic ``CanLead`` predicate.

        ``candidate`` may lead iff it is an *unserved* member of R and
        holds the minimum unserved ordinal among members this node does
        not currently consider failed (failed members are evicted from
        ``known_recovering`` by the detector, so the view converges and
        every node elects the same successor).
        """
        entry = self.known_recovering.get(candidate)
        if entry is None or entry["served"]:
            return False
        lowest = min(
            e["ord"] for e in self.known_recovering.values() if not e["served"]
        )
        return entry["ord"] == lowest

    def _evaluate_leadership(self) -> None:
        if self.ord is None or not self.node.is_recovering:
            return
        mine = self.known_recovering.get(self.node.node_id)
        if mine is None or mine["served"]:
            return  # already handed our depinfo; nothing to lead
        if self.can_lead(self.node.node_id) and self.role != "leader":
            self.role = "leader"
            self._stop_poll()
            episode = self.node.metrics.episode_of(self.node.node_id)
            if episode is not None:
                episode.was_leader = True
            self.trace("leader_elected", ord=self.ord, epoch=self.epoch)
            # fetch any predecessor's persisted round before gathering:
            # a view-change handoff resumes it
            self.phase = "fetch"
            self.send_control(
                self.node.config.sequencer_id, "gather_state_request", body_bytes=8
            )

    def _start_gather(self) -> None:
        """Step 4: collect fresh incarnations from every member of R."""
        self.phase = "inc"
        self._gather_round += 1
        self._inc_replies.clear()
        self._depinfo_replies.clear()
        self._depinfo_expected.clear()
        members = [p for p in self.known_recovering if p != self.node.node_id]
        self._begin_round_span(members)
        self.trace(
            "gather_start",
            round=self._gather_round,
            epoch=self.epoch,
            members=sorted(members),
        )
        for member in sorted(members):
            self.send_control(
                member, "inc_request", {"round": self._gather_round}, body_bytes=8
            )
        self._check_inc_done()

    def _begin_round_span(self, members: List[int], **attrs: Any) -> None:
        spans = self.node.trace.spans
        if not spans.enabled:
            return
        superseded = self._round_span
        if superseded is not None:
            spans.end(superseded, self.node.sim.now, restarted=True)
        self._round_span = spans.begin(
            "recovery.gather_round",
            self.node.node_id,
            self.node.sim.now,
            parent=self.node.episode_span(),
            links=(superseded,),
            round=self._gather_round,
            members=sorted(members),
            **attrs,
        )

    def _restart_gather(self, reason: str) -> None:
        episode = self.node.metrics.episode_of(self.node.node_id)
        if episode is not None:
            episode.gather_restarts += 1
        self.trace("gather_restart", reason=reason)
        self._start_gather()

    def _invalidate_reply(self, node_id: int, reason: str) -> None:
        """Void what the failed process owed this round."""
        self._depinfo_expected.discard(node_id)
        self._depinfo_replies.pop(node_id, None)
        episode = self.node.metrics.episode_of(self.node.node_id)
        if episode is not None:
            episode.reply_invalidations += 1
        self.trace(
            "reply_invalidated",
            peer=node_id,
            reason=reason,
            round=self._gather_round,
        )

    def _live_failure(self, peer: int) -> None:
        """A live process failed: void its reply, and mark every request
        sent so far stale -- answered or not, its reply may have been
        built before the deliveries the failed process made last."""
        self._invalidate_reply(peer, "live_failure")
        self._stale[peer] = self._ask_id

    def _absorb_member(self, peer: int, incarnation: int) -> None:
        """A (re)joined process becomes a member of R mid-round.

        Its fresh incarnation (carried by the join announcement) replaces
        its incvector entry, so no extra incarnation round is needed and
        the gather round is *not* restarted.  The requests that are stale
        for its deliveries are sent again, and their earlier replies
        dropped.
        """
        self._incvector[peer] = max(self._incvector.get(peer, 0), incarnation)
        self._raise_incvector({peer: incarnation})
        self._inc_replies[peer] = incarnation
        if peer in self._depinfo_expected:
            # its join is the first news of its failure
            self._live_failure(peer)
        mark = self._stale.pop(peer, None)
        stale = [] if mark is None else sorted(
            q for q in self._depinfo_expected if self._asked.get(q, 0) <= mark
        )
        for owner in stale:
            self._depinfo_replies.pop(owner, None)
        self.trace(
            "member_absorbed",
            peer=peer,
            round=self._gather_round,
            epoch=self.epoch,
            rerequested=stale,
        )
        # the persisted round drops the stale replies too, so a handoff
        # cannot adopt them back
        self._post_progress(incvector={peer: incarnation}, stale=stale)
        self._request_depinfo(stale)
        self._check_depinfo_done()

    def _raise_incvector(self, incvector: Dict[int, int]) -> None:
        """Reject messages from incarnations older than ``incvector``'s."""
        for peer, inc in incvector.items():
            self.node.incvector[peer] = max(self.node.incvector.get(peer, 0), inc)

    def _live_peers(self) -> List[int]:
        """The processes step 5 asks: neither in R nor suspected."""
        return [
            p
            for p in self.peers
            if p not in self.known_recovering
            and not self.node.detector.is_suspected(p)
        ]

    def _pending_failed(self) -> Set[int]:
        """Failed processes that have not yet announced their recovery.

        The leader cannot finish the incarnation phase (nor distribute)
        without them: it needs their *new* incarnation numbers for
        incvector.
        """
        suspected = self.node.detector.suspected_view()
        return {
            p
            for p in suspected
            if p in self.app_nodes
            and p not in self.known_recovering
            and p != self.node.node_id
        }

    def _check_inc_done(self) -> None:
        if self.phase != "inc":
            return
        if self._pending_failed():
            return  # wait for their join_recovery announcements
        members = [p for p in self.known_recovering if p != self.node.node_id]
        if any(p not in self._inc_replies for p in members):
            return
        # Build incvector over R (step 4 complete).
        self._incvector = {self.node.node_id: self.node.incarnation}
        self._incvector.update((p, self._inc_replies[p]) for p in members)
        self._raise_incvector(self._incvector)
        # persist the completed phase so a successor leader can resume
        # this round instead of redoing the incarnation collection
        self._post_progress(incvector=self._incvector)
        self._start_depinfo_phase()

    def _start_depinfo_phase(self) -> None:
        """Step 5: ask every live process for its depinfo."""
        self.phase = "depinfo"
        live = self._live_peers()
        self._depinfo_expected = set(live)
        self._depinfo_replies.clear()
        self._stale.clear()
        self.trace(
            "depinfo_phase", round=self._gather_round, epoch=self.epoch,
            live=sorted(live),
        )
        self._request_depinfo(sorted(live))
        self._check_depinfo_done()

    def _request_depinfo(self, peers: List[int]) -> None:
        for peer in peers:
            self._ask_id += 1
            self._asked[peer] = self._ask_id
            self.send_control(
                peer,
                "depinfo_request",
                {"ask": self._ask_id, "incvector": dict(self._incvector)},
                body_bytes=16 + 8 * len(self._incvector),
            )

    def _adopt_gather(self, state: Dict[str, Any]) -> bool:
        """View-change handoff: resume the dead leader's last round.

        Adoptable iff the persisted incarnation phase covers every
        current member of R (a member the dead leader never collected
        would need a fresh incarnation round anyway).  Replies persisted
        from peers that have since failed are invalidated; everything
        else -- the incvector and every reply already collected -- is
        kept, and only the missing replies are re-requested.  A failed
        live process still to rejoin may have delivered after any
        adopted reply was built, so every adopted reply is stale for it.
        """
        if state["epoch"] >= self.epoch:
            return False  # not a predecessor's state; never adopt
        members = [p for p in self.known_recovering if p != self.node.node_id]
        incvector = dict(state["incvector"])
        if not incvector:
            return False
        if any(p not in incvector for p in members):
            return False
        episode = self.node.metrics.episode_of(self.node.node_id)
        if episode is not None:
            episode.leader_handoffs += 1
        self._gather_round = max(self._gather_round, state["round"])
        me = self.node.node_id
        incvector[me] = max(incvector.get(me, 0), self.node.incarnation)
        for peer in members:
            # our own membership view is at least as new as the dead
            # leader's: joins we witnessed refresh the adopted entries
            known_inc = self.known_recovering[peer].get("incarnation")
            if known_inc:
                incvector[peer] = max(incvector[peer], known_inc)
        self._incvector = incvector
        self._raise_incvector(incvector)
        self._inc_replies = {p: incvector[p] for p in members}
        self.phase = "depinfo"
        live = self._live_peers()
        self._depinfo_expected = set(live)
        self._depinfo_replies = {
            p: wire
            for p, wire in state["depinfo"].items()
            if p in self._depinfo_expected
        }
        # the adopted replies were asked for by the dead leader, so none
        # has an id of ours: they are stale for a failure still to rejoin
        self._stale = {
            p: self._ask_id
            for p in self._pending_failed()
            if p not in incvector  # a re-crashed member of R stales nothing
        }
        invalidated = sorted(
            p for p in state["depinfo"] if p not in self._depinfo_expected
        )
        if episode is not None:
            episode.reply_invalidations += len(invalidated)
        self._begin_round_span(members, handoff=True)
        self.trace(
            "leader_handoff",
            epoch=self.epoch,
            from_epoch=state["epoch"],
            round=self._gather_round,
            adopted_replies=sorted(self._depinfo_replies),
            invalidated=invalidated,
        )
        # re-persist under our own epoch so a third leader could resume
        # from us in turn
        self._post_progress(
            incvector=self._incvector, depinfo=self._depinfo_replies
        )
        self.trace(
            "depinfo_phase", round=self._gather_round, epoch=self.epoch,
            live=sorted(live), resumed=True,
        )
        self._request_depinfo(
            sorted(p for p in live if p not in self._depinfo_replies)
        )
        self._check_depinfo_done()
        return True

    def _post_progress(
        self,
        incvector: Optional[Dict[int, int]] = None,
        depinfo: Optional[Dict[int, Depinfo]] = None,
        stale: Sequence[int] = (),
    ) -> None:
        """Persist gather progress at the sequencer: new incvector
        entries and replies, and the replies ``stale`` no longer holds."""
        incvector = dict(incvector or {})
        depinfo = dict(depinfo or {})
        wire_items = sum(len(dets) for dets, _ in depinfo.values())
        self.send_control(
            self.node.config.sequencer_id,
            "gather_progress",
            {"round": self._gather_round, "incvector": incvector, "depinfo": depinfo,
             "stale": list(stale)},
            body_bytes=16 + 8 * len(incvector) + 32 * wire_items + 8 * len(stale),
        )

    def _check_depinfo_done(self) -> None:
        if self.phase != "depinfo":
            return
        if any(p not in self._depinfo_replies for p in self._depinfo_expected):
            return
        if self._pending_failed():
            # a process failed mid-round: wait for its join so its fresh
            # incarnation makes it into incvector (absorbed, not
            # restarted)
            return
        self._distribute()

    def _distribute(self) -> None:
        """Step 6: hand the merged snapshot to every member of R."""
        self.phase = "distribute"
        merged_wire = merge_depinfo(
            [*self._depinfo_replies.values(), self.node.protocol.local_depinfo_wire()])
        determinants = len(merged_wire[0])
        members = [
            p
            for p, entry in self.known_recovering.items()
            if p != self.node.node_id and not entry["served"]
        ]
        self.trace(
            "distribute",
            members=sorted(members),
            determinants=determinants,
            epoch=self.epoch,
            incvector=dict(self._incvector),
        )
        for member in sorted(members):
            self.send_control(
                member,
                "depinfo_distribute",
                {"wire": merged_wire, "incvector": dict(self._incvector)},
                body_bytes=32 * determinants,
            )
        # The recovery *algorithm* is now complete (step 6 done); replay
        # is local work.  Release the leadership critical section so the
        # next ordinal can run its own round (and regenerate any data our
        # replay may need from it).
        served = {}
        for peer in sorted(members) + [self.node.node_id]:
            entry = self.known_recovering.get(peer)
            if entry is not None:
                entry["served"] = True
                served[peer] = entry["ord"]
        self.broadcast_control(
            self.peers + [self.node.config.sequencer_id], "leader_done",
            {"served": served}, body_bytes=8 + 8 * len(served),
        )
        if self._round_span is not None:
            self.node.trace.spans.end(
                self._round_span, self.node.sim.now, determinants=determinants
            )
            self._round_span = None
        self.node.mark_replay_start()
        self.node.protocol.begin_replay(merged_wire)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def on_replay_complete(self) -> None:
        self._stop_poll()
        self.trace("complete", ord=self.ord, epoch=self.epoch)
        self.announce_complete(self.peers + [self.node.config.sequencer_id])
        self.known_recovering.pop(self.node.node_id, None)
        self.ord = None
        self.role = "idle"
        self.phase = None
        self.epoch = 0
        self.node.complete_recovery()

    # ------------------------------------------------------------------
    # waiting-state fallback poll
    # ------------------------------------------------------------------
    def _start_poll(self) -> None:
        if self._poll_timer is None:
            from repro.sim.timers import PeriodicTimer

            self._poll_timer = PeriodicTimer(
                self.node.sim,
                STATUS_POLL_INTERVAL,
                self._poll_sequencer,
                label=f"recovery-poll-{self.node.node_id}",
            )
            self._poll_timer.start()

    def _stop_poll(self) -> None:
        if self._poll_timer is not None:
            self._poll_timer.cancel()
            self._poll_timer = None

    def _poll_sequencer(self) -> None:
        if self.role == "waiting":
            self.send_control(
                self.node.config.sequencer_id, "ord_status_request", body_bytes=8
            )
        else:
            self._stop_poll()
