"""The ordinal service behind the paper's system-wide ``ord``.

Section 3.2 defines ``ord`` as "a system-wide monotonic number that is
incremented whenever a process starts recovery.  The process whose
recovery corresponds to the lowest value becomes the recovery leader."

A system-wide monotonic counter needs *some* agreed-upon home.  We model
it as a minimal never-failing service process -- the same device the
paper itself uses when it "model[s] stable storage as an additional
process that never fails or sends a message" for the ``f = n`` case.
The sequencer answers ``ord_request`` with a fresh ordinal plus the set
of recoveries currently in progress (so a newly recovering process can
tell whether an earlier-ordinal leader is active), and it retires
entries when it hears ``recovery_complete``.

The ordinal doubles as the episode's **recovery epoch**: it is already
system-wide monotone, so tagging every control message with it lets
receivers reject messages from dead episodes (see
:mod:`repro.recovery.base`).

The sequencer is also the stable home of **gather progress**: the
recovery leader posts its per-round state (round number, the gathered
incvector, each depinfo reply as it is collected, and the replies it
has re-requested as stale) as ``gather_progress`` messages, and a
successor leader fetches it with ``gather_state_request`` after a view
change so it can *resume* the round instead of restarting it.  Posts from a superseded leader epoch
are dropped (and traced) -- a dead leader cannot corrupt its
successor's round.

All its traffic is counted as recovery-control messages, so the extra
round-trips are charged against the new algorithm's communication
budget.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net.network import Message, MessageKind, Network
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


class Sequencer:
    """Never-failing ordinal service.  Lives at node id ``n``."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        trace: TraceRecorder,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.trace = trace
        self._next_ord = 1
        #: node -> {"ord": int, "served": bool} for recoveries in progress;
        #: the ordinal is also the episode's recovery epoch
        self.active: Dict[int, Dict] = {}
        #: persisted progress of the current leader's gather round:
        #: {"leader", "epoch", "round", "incvector", "depinfo": {peer: wire}}
        self.gather: Optional[Dict[str, Any]] = None
        #: stale posts refused (dead-epoch leaders); for tests/metrics
        self.stale_epoch_drops = 0

    def start(self) -> None:
        """Register on the network."""
        self.network.register(self.node_id, self.receive)

    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if msg.mtype == "ord_request":
            self._on_ord_request(msg)
        elif msg.mtype == "ord_status_request":
            self._on_status_request(msg)
        elif msg.mtype == "gather_progress":
            self._on_gather_progress(msg)
        elif msg.mtype == "gather_state_request":
            self._on_gather_state_request(msg)
        elif msg.mtype == "leader_done":
            if self._superseded(msg):
                return
            # ``served`` maps peer -> the ordinal the leader served, so a
            # late announcement from a dead round can never retire a
            # peer's *newer* episode
            for peer, peer_ord in msg.payload["served"].items():
                entry = self.active.get(peer)
                if entry is not None and entry["ord"] == peer_ord:
                    entry["served"] = True
            if (
                self.gather is not None
                and self.gather["epoch"] == msg.payload.get("epoch", 0)
            ):
                self.gather = None  # the round completed; nothing to resume
        elif msg.mtype == "recovery_complete":
            if self._superseded(msg):
                return
            self.active.pop(msg.src, None)
            if not self.active:
                self.gather = None
        # anything else is ignored; the sequencer never initiates traffic
        # other than replies

    def _superseded(self, msg: Message) -> bool:
        """Drop traffic from an episode the sender has since superseded.

        An absent entry (the episode retired cleanly) is *not* stale:
        late duplicates of a finished episode's announcements are
        idempotent no-ops, and per-peer ordinal matching already keeps
        them from touching newer state.
        """
        entry = self.active.get(msg.src)
        epoch = (msg.payload or {}).get("epoch", 0)
        if entry is None or epoch == entry["ord"]:
            return False
        self._drop(msg, epoch, entry["ord"])
        return True

    def _stale(self, msg: Message) -> bool:
        """Drop leader traffic that does not match the sender's grant."""
        entry = self.active.get(msg.src)
        epoch = (msg.payload or {}).get("epoch", 0)
        if entry is not None and epoch == entry["ord"]:
            return False
        self._drop(msg, epoch, entry["ord"] if entry is not None else None)
        return True

    def _drop(self, msg: Message, epoch: int, expected: Optional[int]) -> None:
        self.stale_epoch_drops += 1
        self.trace.record(
            self.sim.now, "sequencer", self.node_id, "stale_epoch_drop",
            src=msg.src, mtype=msg.mtype, epoch=epoch, expected=expected,
        )

    def _on_ord_request(self, msg: Message) -> None:
        # A process that re-crashes during recovery requests a fresh ord;
        # its stale entry is superseded.
        ord_value = self._next_ord
        self._next_ord += 1
        self.active[msg.src] = {"ord": ord_value, "served": False}
        self.trace.record(
            self.sim.now, "sequencer", self.node_id, "ord_granted",
            requester=msg.src, ord=ord_value,
        )
        self._reply(
            msg.src,
            "ord_reply",
            {
                "ord": ord_value,
                "epoch": ord_value,
                "active": {k: dict(v) for k, v in self.active.items()},
            },
            body_bytes=24 + 8 * len(self.active),
        )

    def _on_status_request(self, msg: Message) -> None:
        self._reply(
            msg.src,
            "status_reply",
            {
                "epoch": (msg.payload or {}).get("epoch", 0),
                "active": {k: dict(v) for k, v in self.active.items()},
            },
            body_bytes=8 + 8 * len(self.active),
        )

    # ------------------------------------------------------------------
    # persisted gather progress (view-change handoff support)
    # ------------------------------------------------------------------
    def _on_gather_progress(self, msg: Message) -> None:
        if self._stale(msg):
            return
        entry = self.active.get(msg.src)
        if entry is not None and entry["served"]:
            # the round already announced leader_done; a late progress
            # post must not resurrect its state for a future leader
            self._drop(msg, (msg.payload or {}).get("epoch", 0), entry["ord"])
            return
        payload = msg.payload
        epoch, round_id = payload["epoch"], payload["round"]
        state = self.gather
        if state is not None and epoch < state["epoch"]:
            # a post from a superseded leader raced in after the handoff
            self._drop(msg, epoch, state["epoch"])
            return
        if state is None or epoch > state["epoch"] or round_id > state["round"]:
            state = self.gather = {
                "leader": msg.src,
                "epoch": epoch,
                "round": round_id,
                "incvector": {},
                "depinfo": {},
            }
        for peer, inc in payload.get("incvector", {}).items():
            state["incvector"][peer] = max(state["incvector"].get(peer, 0), inc)
        for peer, wire in payload.get("depinfo", {}).items():
            state["depinfo"][peer] = wire
        for peer in payload.get("stale", ()):
            # re-requested after an absorb: a successor must ask again
            state["depinfo"].pop(peer, None)
        self.trace.record(
            self.sim.now, "sequencer", self.node_id, "gather_progress",
            leader=msg.src, epoch=epoch, round=round_id,
            replies=len(state["depinfo"]),
        )

    def _on_gather_state_request(self, msg: Message) -> None:
        """Hand the persisted round to a successor leader, charged for
        what it carries as :meth:`NonblockingRecovery._post_progress`
        charges a post: 8 B per incvector entry, 32 B per determinant."""
        state = self.gather
        carried = 0
        if state is not None:
            carried = 8 * len(state["incvector"]) + 32 * sum(
                len(dets) for dets, _ in state["depinfo"].values())
        self._reply(
            msg.src,
            "gather_state_reply",
            {
                "epoch": (msg.payload or {}).get("epoch", 0),
                "gather": {k: _copy_state(v) for k, v in state.items()}
                if state is not None
                else None,
            },
            body_bytes=16 + carried,
        )

    # ------------------------------------------------------------------
    def _reply(self, dst: int, mtype: str, payload: Dict, body_bytes: int) -> None:
        self.network.send(
            Message(
                src=self.node_id,
                dst=dst,
                kind=MessageKind.RECOVERY,
                mtype=mtype,
                payload=payload,
                body_bytes=body_bytes,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sequencer(next={self._next_ord}, active={self.active})"


def _copy_state(value: Any) -> Any:
    """Shallow-copy one gather-state field for the reply payload."""
    return dict(value) if isinstance(value, dict) else value
