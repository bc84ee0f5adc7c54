"""Online invariant monitor over the trace stream.

The :class:`Sanitizer` subscribes to the live trace stream
(:meth:`Sanitizer.attach`: each handler directly under its
``category.action`` key) and checks the protocol-specific invariants
*at the event where each can first be violated*, attaching the causal
span chain that was open at that moment.  Orphan freedom is not among
them: it is the :class:`~repro.core.oracle.ConsistencyOracle`'s one
orphan rule, judged online in every run.  The monitor reads the run's
one causal record, the oracle's
:class:`~repro.sanitizer.causal.CausalGraph`, and writes nothing to it.
Like the kernel profiler, it costs nothing when off: ``System`` only
builds and attaches it under ``config.sanitize``.

Invariants checked (see ``docs/SANITIZER.md`` for the mapping to paper
sections):

``commit-order``
    An output at receipt order ``rsn`` commits only once every delivery
    in ``(checkpoint horizon, rsn]`` is recoverable: determinant stable
    at f+1 hosts (FBL family), receipt durably logged (pessimistic /
    optimistic), or covered by a committed snapshot line (coordinated).
    Checked at ``output.commit``.

``det-complete``
    FBL's acknowledged determinant push: a pusher may count a host
    toward the f+1 replication target only after that host reported
    storing the determinant.  Checked at ``protocol.det_ack`` against
    the ``protocol.det_store`` events the storer emitted.

``write-order``
    Stable-storage ordering vs. the commit protocol: pessimistic
    logging must not deliver before the receipt-log write commits
    (checked at ``app.deliver`` against ``protocol.log_commit``), and
    Manetho must not mark a determinant host-stable without a durable
    log write behind it (checked at ``protocol.det_stable`` against
    ``protocol.det_durable``).  One documented exemption: after local
    replay, pessimistic delivers traffic that was in flight during the
    restore without logging it first -- those messages are unacked at
    their senders and will be retransmitted if the receiver fails
    again, so the deliveries (flagged by sharing the ``node.recovered``
    timestamp) are recoverable and legitimate.

``cut-consistent``
    A coordinated rollback sends every process to the same round
    (checked at ``snapshot.rolled_back``).  That each committed round is
    a consistent cut is the oracle's cut rule, judged in every run.

``no-block``
    The paper's non-blocking guarantee (Section 3): under
    ``recovery="nonblocking"`` a live process never suspends application
    progress, for any reason, at any point.  Any ``node.block`` event
    is a violation.

``recovery-epoch``
    The churn-hardening discipline (see ``docs/RECOVERY.md``): recovery
    epochs strictly increase across a node's episodes (checked at
    ``recovery.epoch_begin``); every epoch-tagged recovery action
    (``gather_start``, ``depinfo_phase``, ``distribute``,
    ``leader_handoff``, ``complete``, ...) runs under the node's
    *current* epoch -- no control message or action from a dead epoch
    *e* may take effect in epoch *e' > e*; a leader handoff adopts
    state only from a strictly older epoch; and a handoff preserves the
    gathered-cut consistency: the distributed incvector never carries
    an incarnation below one the system has already restored (checked
    against ``node.restored`` events).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sanitizer.causal import CausalGraph
from repro.sim.spans import SpanChainTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import SystemConfig
    from repro.sim.trace import TraceEvent, TraceRecorder

#: protocols gating outputs on determinant stability (f+1 replication)
FBL_FAMILY = frozenset({"fbl", "sender_based", "manetho"})
#: protocols whose outputs gate on det_stable events; the adaptive stack
#: announces stability uniformly (f+1 piggyback, durable record, or
#: synchronous write) so the FBL commit-order check covers all its modes
DET_STABILITY_PROTOCOLS = FBL_FAMILY | frozenset({"adaptive"})


@dataclass
class SanitizerViolation:
    """One invariant violation, caught at the violating event."""

    invariant: str
    node: Optional[int]
    time: float
    detail: str
    #: innermost-first causal span chain open at the violating event
    span_chain: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for reports and CLI output."""
        return {
            "invariant": self.invariant,
            "node": self.node,
            "time": self.time,
            "detail": self.detail,
            "span_chain": list(self.span_chain),
        }

    def __str__(self) -> str:
        chain = " <- ".join(
            f"{link['kind']}#{link['span']}" for link in self.span_chain
        )
        where = f" [{chain}]" if chain else ""
        return (
            f"[{self.invariant}] t={self.time:.6f} node={self.node}: "
            f"{self.detail}{where}"
        )


class Sanitizer:
    """Event-driven invariant checker for one run.

    Reads ``graph``, the oracle's; attach with :meth:`attach`; call
    :meth:`finalize` after the run and :meth:`report` for a picklable
    summary.  The monitor only *observes*: it never schedules events,
    draws randomness, writes the graph, or touches protocol state, so it
    cannot perturb a run.
    """

    def __init__(self, config: "SystemConfig", graph: CausalGraph) -> None:
        self.protocol = config.protocol
        self.recovery = config.recovery
        self.graph = graph
        self.chains = SpanChainTracker()
        #: the recorder attach() subscribed to, until finalize() (``None``
        #: when fed by hand)
        self._trace: Optional["TraceRecorder"] = None
        self.violations: List[SanitizerViolation] = []
        self.events_seen = 0
        self.checks: Dict[str, int] = {}

        # -- per-node run state ----------------------------------------
        self._delivered: Dict[int, int] = {}
        self._live: Dict[int, bool] = {}
        self._recovered_at: Dict[int, float] = {}
        #: deliveries covered by the latest durable checkpoint
        self._horizon: Dict[int, int] = {}

        # -- FBL family ------------------------------------------------
        #: owner -> rsns whose determinants reached stability
        self._stable_rsns: Dict[int, Set[int]] = {}
        #: owner -> rsns with a durable determinant write (manetho)
        self._durable_rsns: Dict[int, Set[int]] = {}
        #: (storer, determinant tuple) pairs confirmed stored
        self._det_stored: Set[Tuple[int, tuple]] = set()

        # -- pessimistic -----------------------------------------------
        #: (receiver, sender, ssn) with a committed receipt-log write
        self._pess_logged: Set[Tuple[int, int, int]] = set()
        #: deliveries exempted as recoverable in-flight replay leftovers
        self._pess_unlogged_ok: Set[Tuple[int, int, int]] = set()

        # -- optimistic ------------------------------------------------
        #: mirror of the protocol's logged-prefix counter
        self._opt_logged: Dict[int, int] = {}

        # -- recovery epochs -------------------------------------------
        #: per-node current recovery epoch (last epoch_begin)
        self._rec_epoch: Dict[int, int] = {}
        #: per-node latest restored incarnation (from node.restored)
        self._incarnation: Dict[int, int] = {}

        # -- adaptive mode epochs --------------------------------------
        #: mode every process starts in (read by the adaptive checks only)
        self._mode_default = (
            config.adaptive.initial_mode if config.adaptive is not None
            else config.protocol_params.get("initial_mode", "fbl"))
        #: per-node mode currently governing deliveries
        self._mode: Dict[int, str] = {}
        #: per-node mode epoch (bumped by each committed switch)
        self._mode_epoch: Dict[int, int] = {}

        # -- coordinated -----------------------------------------------
        #: per-node delivered count covered by the committed round
        self._cover: Dict[int, int] = {}
        #: rollback epoch -> the single round it must target
        self._rollback_round: Dict[int, int] = {}

        #: ``category.action`` -> the handler a record of that key is handed to
        self._handlers: Dict[str, Callable[["TraceEvent"], None]] = {
            "span.begin": self.chains.on_event,
            "span.end": self.chains.on_event,
            "app.deliver": self._on_deliver,
            "node.start": self._on_start,
            "node.crash": self._on_crash,
            "node.recovered": self._on_recovered,
            "node.restored": self._on_restored,
            "node.checkpoint_durable": self._on_checkpoint_durable,
            "node.block": self._on_block,
            "recovery.epoch_begin": self._on_epoch_begin,
            "recovery.stale_epoch_drop": self._on_stale_epoch_drop,
            "recovery.leader_handoff": self._on_leader_handoff,
            "recovery.ord_acquired": self._on_epoch_action,
            "recovery.gather_start": self._on_epoch_action,
            "recovery.depinfo_phase": self._on_epoch_action,
            "recovery.distribute": self._on_distribute,
            "recovery.complete": self._on_epoch_action,
            "protocol.det_stable": self._on_det_stable,
            "protocol.det_durable": self._on_det_durable,
            "protocol.det_store": self._on_det_store,
            "protocol.det_ack": self._on_det_ack,
            "protocol.log_commit": self._on_log_commit,
            "protocol.mode_switch": self._on_mode_switch,
            "protocol.mode_restored": self._on_mode_restored,
            "replay.done": self._on_replay_done,
            "output.commit": self._on_output_commit,
            "snapshot.committed": self._on_snapshot_committed,
            "snapshot.rolled_back": self._on_rolled_back,
        }

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def attach(self, trace: "TraceRecorder") -> None:
        """Subscribe each handler directly under its ``category.action``
        key; no other record reaches the monitor.  Equivalent to feeding
        it every event (:meth:`on_event`): a record without a handler
        changes nothing the monitor reads."""
        self._trace = trace
        for key, handler in self._handlers.items():
            trace.subscribe(handler, key)

    def on_event(self, event: "TraceEvent") -> None:
        """Feed one trace event as if subscribed to every key: the
        full-stream path, for replaying a kept trace."""
        handler = self._handlers.get(f"{event.category}.{event.action}")
        if handler is not None:
            self.events_seen += 1
            handler(event)

    def _check(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def _flag(
        self, invariant: str, node: Optional[int], time: float, detail: str
    ) -> None:
        self.violations.append(SanitizerViolation(
            invariant=invariant,
            node=node,
            time=time,
            detail=detail,
            span_chain=self.chains.chain(node),
        ))

    # ------------------------------------------------------------------
    # deliveries
    # ------------------------------------------------------------------
    def _on_deliver(self, event: "TraceEvent") -> None:
        receiver = event.node
        sender, ssn, rsn = event.values  # the emitter's (sender, ssn, rsn)
        self._delivered[receiver] = rsn + 1
        if self.protocol == "pessimistic":
            self._check("write-order")
            key = (receiver, sender, ssn)
            if key not in self._pess_logged:
                if event.time == self._recovered_at.get(receiver):
                    # replay leftover: in flight during the restore, still
                    # unacked at its sender, hence recoverable (see module
                    # docstring) -- remember it for the commit-order check
                    self._pess_unlogged_ok.add(key)
                else:
                    self._flag(
                        "write-order",
                        receiver,
                        event.time,
                        f"delivered ({sender}, ssn {ssn}) at rsn {rsn} "
                        f"before its receipt-log write committed",
                    )
        if self.protocol == "adaptive":
            # every delivery is governed by exactly one mode's
            # obligations; under pessimistic governance the receipt-log
            # write must have committed first, with the same replay
            # exemptions as the static pessimistic stack (replayed
            # deliveries happen while the node is down; leftovers land
            # exactly at the recovery instant)
            self._check("mode-epoch")
            mode = self._mode.get(receiver, self._mode_default)
            if mode == "pessimistic" and self._live.get(receiver, True):
                key = (receiver, sender, ssn)
                if key not in self._pess_logged:
                    if event.time == self._recovered_at.get(receiver):
                        self._pess_unlogged_ok.add(key)
                    else:
                        self._flag(
                            "mode-epoch",
                            receiver,
                            event.time,
                            f"delivery ({sender}, ssn {ssn}) at rsn {rsn} is "
                            f"governed by pessimistic mode but no receipt-log "
                            f"write committed first",
                        )

    # ------------------------------------------------------------------
    # node lifecycle
    # ------------------------------------------------------------------
    def _on_start(self, event: "TraceEvent") -> None:
        self._live[event.node] = True
        self._cover.setdefault(event.node, 0)

    def _on_crash(self, event: "TraceEvent") -> None:
        node = event.node
        self._live[node] = False
        if self.protocol == "optimistic":
            self._opt_logged[node] = 0
        if self.protocol == "coordinated":
            self._cover[node] = 0

    def _on_recovered(self, event: "TraceEvent") -> None:
        node = event.node
        self._live[node] = True
        self._recovered_at[node] = event.time
        self._delivered[node] = event.details["delivered"]

    def _on_checkpoint_durable(self, event: "TraceEvent") -> None:
        node = event.node
        horizon = max(self._horizon.get(node, 0), event.details["delivered"])
        self._horizon[node] = horizon
        # readers look only at rsns from the horizon up, which never falls
        stable = self._stable_rsns.get(node)
        if stable:
            self._stable_rsns[node] = {rsn for rsn in stable if rsn >= horizon}

    def _on_block(self, event: "TraceEvent") -> None:
        self._check("no-block")
        if self.recovery == "nonblocking":
            self._flag(
                "no-block",
                event.node,
                event.time,
                "live process suspended application progress under the "
                "non-blocking recovery algorithm",
            )

    # ------------------------------------------------------------------
    # recovery epochs (churn hardening)
    # ------------------------------------------------------------------
    def _on_restored(self, event: "TraceEvent") -> None:
        node = event.node
        incarnation = event.details.get("incarnation")
        if incarnation is not None:
            current = self._incarnation.get(node, 0)
            self._incarnation[node] = max(current, incarnation)

    def _on_epoch_begin(self, event: "TraceEvent") -> None:
        node = event.node
        self._check("recovery-epoch")
        epoch = event.details["epoch"]
        last = self._rec_epoch.get(node)
        if last is not None and epoch <= last:
            self._flag(
                "recovery-epoch",
                node,
                event.time,
                f"recovery epoch {epoch} does not advance past the node's "
                f"previous epoch {last}",
            )
        self._rec_epoch[node] = epoch

    def _on_stale_epoch_drop(self, event: "TraceEvent") -> None:
        # evidence the discipline is active; the drop itself is correct
        # behaviour, so this only counts as an audit point
        self._check("recovery-epoch")

    def _on_epoch_action(self, event: "TraceEvent") -> None:
        self._check_epoch(event, event.details.get("epoch"))

    def _check_epoch(self, event: "TraceEvent", epoch: Optional[int]) -> None:
        node = event.node
        if epoch is None:
            return
        self._check("recovery-epoch")
        current = self._rec_epoch.get(node)
        if epoch != current:
            self._flag(
                "recovery-epoch",
                node,
                event.time,
                f"recovery action {event.action!r} took effect under epoch "
                f"{epoch} but the node's current epoch is {current}",
            )

    def _on_leader_handoff(self, event: "TraceEvent") -> None:
        d = event.details
        self._check_epoch(event, d.get("epoch"))
        self._check("recovery-epoch")
        if d["from_epoch"] >= d["epoch"]:
            self._flag(
                "recovery-epoch",
                event.node,
                event.time,
                f"handoff adopted gather state from epoch {d['from_epoch']}, "
                f"which is not a predecessor of epoch {d['epoch']}",
            )

    def _on_distribute(self, event: "TraceEvent") -> None:
        d = event.details
        self._check_epoch(event, d.get("epoch"))
        node = event.node
        incvector = d.get("incvector")
        if not incvector:
            return
        self._check("recovery-epoch")
        for peer, inc in incvector.items():
            latest = self._incarnation.get(peer, 0)
            if inc < latest:
                self._flag(
                    "recovery-epoch",
                    node,
                    event.time,
                    f"distributed incvector carries incarnation {inc} for "
                    f"node {peer}, which already restored incarnation "
                    f"{latest} (the handoff broke the gathered cut)",
                )

    # ------------------------------------------------------------------
    # determinant stability (FBL family)
    # ------------------------------------------------------------------
    def _on_det_stable(self, event: "TraceEvent") -> None:
        node = event.node
        rsn = event.values[0]  # the emitter's (rsn, sender, ssn)
        self._stable_rsns.setdefault(node, set()).add(rsn)
        if self.protocol == "manetho":
            self._check("write-order")
            if rsn not in self._durable_rsns.get(node, set()):
                self._flag(
                    "write-order",
                    node,
                    event.time,
                    f"determinant for rsn {rsn} marked host-stable without "
                    f"a durable log write behind it",
                )

    def _on_det_durable(self, event: "TraceEvent") -> None:
        self._durable_rsns.setdefault(event.node, set()).add(event.details["rsn"])

    def _on_det_store(self, event: "TraceEvent") -> None:
        storer = event.node
        for det in event.details["dets"]:
            self._det_stored.add((storer, tuple(det)))

    def _on_det_ack(self, event: "TraceEvent") -> None:
        pusher = event.node
        d = event.details
        storer = d["src"]
        for det in d["dets"]:
            self._check("det-complete")
            if (storer, tuple(det)) not in self._det_stored:
                self._flag(
                    "det-complete",
                    pusher,
                    event.time,
                    f"push of determinant {tuple(det)} acknowledged by node "
                    f"{storer} before the store was recorded there",
                )

    # ------------------------------------------------------------------
    # receipt logs (pessimistic / optimistic)
    # ------------------------------------------------------------------
    def _on_log_commit(self, event: "TraceEvent") -> None:
        node = event.node
        d = event.details
        if self.protocol in ("pessimistic", "adaptive"):
            self._pess_logged.add((node, d["sender"], d["ssn"]))
        elif self.protocol == "optimistic":
            current = self._opt_logged.get(node, 0)
            self._opt_logged[node] = max(current, d["index"])

    def _on_replay_done(self, event: "TraceEvent") -> None:
        if self.protocol == "optimistic":
            self._opt_logged[event.node] = event.details["delivered"]

    # ------------------------------------------------------------------
    # adaptive mode epochs
    # ------------------------------------------------------------------
    def _on_mode_switch(self, event: "TraceEvent") -> None:
        """A process committed a logging-mode switch.

        The ``mode-epoch`` invariant: epochs advance by exactly one per
        committed switch, the claimed outgoing mode is the one that
        actually governed deliveries, the process is live, and — the
        load-bearing part — the switch happens at a determinant-quiescent
        point: every delivery above the checkpoint horizon already has a
        stable determinant, so no obligation straddles the epoch line.
        """
        node = event.node
        d = event.details
        epoch = d["epoch"]
        self._check("mode-epoch")
        last = self._mode_epoch.get(node, 0)
        if epoch != last + 1:
            self._flag(
                "mode-epoch",
                node,
                event.time,
                f"mode switch carries epoch {epoch}, which does not advance "
                f"the node's previous mode epoch {last} by one",
            )
        prev_mode = self._mode.get(node, self._mode_default)
        if d.get("from_mode") != prev_mode:
            self._flag(
                "mode-epoch",
                node,
                event.time,
                f"switch claims to leave mode {d.get('from_mode')!r} but "
                f"deliveries were governed by {prev_mode!r}",
            )
        if not self._live.get(node, True):
            self._flag(
                "mode-epoch",
                node,
                event.time,
                f"mode switch to {d.get('to_mode')!r} while the process is "
                f"down or recovering",
            )
        delivered = self._delivered.get(node, 0)
        horizon = self._horizon.get(node, 0)
        stable = self._stable_rsns.get(node, set())
        missing = [r for r in range(horizon, delivered) if r not in stable]
        if missing:
            self._flag(
                "mode-epoch",
                node,
                event.time,
                f"switch to {d.get('to_mode')!r} at a non-quiescent point: "
                f"determinants at rsns {missing[:6]} not yet stable",
            )
        self._mode_epoch[node] = epoch
        self._mode[node] = d["to_mode"]

    def _on_mode_restored(self, event: "TraceEvent") -> None:
        """A restore re-baselined the mode state from a checkpoint.

        A crash between the durable mode marker and the switch
        checkpoint legitimately rolls the epoch back; monotonicity is
        re-anchored here rather than flagged.
        """
        node = event.node
        self._check("mode-epoch")
        d = event.details
        self._mode[node] = d["mode"]
        self._mode_epoch[node] = d["epoch"]

    # ------------------------------------------------------------------
    # output commit ordering
    # ------------------------------------------------------------------
    def _on_output_commit(self, event: "TraceEvent") -> None:
        d = event.details
        if d.get("duplicate"):
            return  # a replayed re-request; the first release was checked
        node = event.node
        rsn = d["output_id"][1]
        time = event.time
        self._check("commit-order")
        if self.protocol in DET_STABILITY_PROTOCOLS:
            horizon = self._horizon.get(node, 0)
            stable = self._stable_rsns.get(node, set())
            missing = [r for r in range(horizon, rsn + 1) if r not in stable]
            if missing:
                self._flag(
                    "commit-order",
                    node,
                    time,
                    f"output at rsn {rsn} committed with unstable "
                    f"determinants at rsns {missing[:6]} "
                    f"(checkpoint horizon {horizon})",
                )
        elif self.protocol == "pessimistic":
            delivered = self.graph.delivery_at(node, rsn)
            if delivered is not None:
                sender, ssn = delivered
                key = (node, sender, ssn)
                if key not in self._pess_logged and key not in self._pess_unlogged_ok:
                    self._flag(
                        "commit-order",
                        node,
                        time,
                        f"output at rsn {rsn} committed before the delivery's "
                        f"receipt-log write",
                    )
        elif self.protocol == "optimistic":
            logged = self._opt_logged.get(node, 0)
            if logged < rsn + 1:
                self._flag(
                    "commit-order",
                    node,
                    time,
                    f"output at rsn {rsn} committed with only {logged} "
                    f"deliveries durably logged",
                )
        elif self.protocol == "coordinated":
            cover = self._cover.get(node, 0)
            if rsn >= cover:
                self._flag(
                    "commit-order",
                    node,
                    time,
                    f"output at rsn {rsn} committed but the committed "
                    f"snapshot line only covers {cover} deliveries",
                )

    # ------------------------------------------------------------------
    # coordinated snapshot rounds
    # ------------------------------------------------------------------
    def _on_snapshot_committed(self, event: "TraceEvent") -> None:
        self._cover[event.node] = event.details["covered"]

    def _on_rolled_back(self, event: "TraceEvent") -> None:
        node = event.node
        d = event.details
        if "covered" in d:
            self._cover[node] = d["covered"]
        epoch = d.get("epoch")
        round_id = d["round"]
        if epoch is None:
            return
        self._check("cut-consistent")
        expected = self._rollback_round.setdefault(epoch, round_id)
        if round_id != expected:
            self._flag(
                "cut-consistent",
                node,
                event.time,
                f"rollback epoch {epoch} sent node {node} to round "
                f"{round_id} while others rolled back to round {expected}",
            )

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """End of run: stop listening, and count the records heard (the
        recorder's counters for the handled keys).  Every invariant was
        judged at its event, so nothing is pending."""
        trace, self._trace = self._trace, None
        if trace is not None:
            for key, handler in self._handlers.items():
                trace.unsubscribe(handler, key)
            counters = trace.counters
            self.events_seen = sum(counters.get(key, 0) for key in self._handlers)

    @property
    def clean(self) -> bool:
        """True while no invariant has been violated."""
        return not self.violations

    def report(self) -> Dict[str, Any]:
        """Picklable summary for ``RunResult.extra['sanitizer']``."""
        return {
            "clean": self.clean,
            "events_seen": self.events_seen,
            "checks": dict(self.checks),
            "violations": [v.as_dict() for v in self.violations],
        }
