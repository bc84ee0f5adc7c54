"""A simulated host: application + protocol + recovery manager.

:class:`Node` owns the lifecycle the paper's Section 3 data structures
describe: the ``state`` variable (live / crashed / restoring /
recovering), the ``incarnation`` counter, and the ``incvector`` used to
reject stale messages from pre-failure incarnations.  It routes incoming
messages to the right layer, implements crash/restore semantics (all
volatile state vanishes; restore costs real stable-storage time), and
provides the blocking primitive the baseline recovery algorithm uses.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.output import OutputDevice
from repro.net.network import Message, MessageKind
from repro.procs.process import OUTPUT_DST, ApplicationProcess, Send
from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.stable import StableStorage

#: protocol message types deferred while a node is blocked
BLOCKED_PROTOCOL_TYPES = frozenset({"retransmit_data"})


class NodeState(enum.Enum):
    """Lifecycle states of a simulated host."""

    LIVE = "live"
    CRASHED = "crashed"
    RESTORING = "restoring"  # reading the checkpoint back
    RECOVERING = "recovering"  # running the recovery algorithm / replaying


class Node:
    """One host of the distributed system under test.

    ``__slots__`` keeps per-node bookkeeping in a fixed struct-like
    layout instead of a per-instance ``__dict__``: at the 10k-process
    scale the ``huge_system`` benchmark targets, the dict per node (and
    the hash-lookup per attribute touch on the delivery hot path) is
    measurable in both RSS and events/sec.
    """

    __slots__ = (
        "node_id", "sim", "network", "detector", "trace", "metrics",
        "oracle", "config", "app", "protocol", "recovery", "output_device",
        "storage", "checkpoints", "state", "incarnation", "incvector",
        "send_seqnos", "delivered_ids", "blocked", "_blocked_queue",
        "_restore_queue", "_restored_checkpoint", "_crash_epoch",
        "crash_count", "_episode_span", "_phase_span", "_block_span",
        "_emit_deliver",
    )

    def __init__(
        self,
        node_id: int,
        sim: "Simulator",
        network: "Network",
        detector: "FailureDetector",
        trace: "TraceRecorder",
        metrics: "MetricsCollector",
        oracle: "ConsistencyOracle",
        config: "SystemConfig",
        app: ApplicationProcess,
        protocol: "LoggingProtocol",
        recovery: "RecoveryManager",
        output_device: Optional[OutputDevice] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.detector = detector
        self.trace = trace
        self._emit_deliver = trace.emitter(
            "app", "deliver", ("sender", "ssn", "rsn"))
        self.metrics = metrics
        self.oracle = oracle
        self.config = config
        self.app = app
        self.protocol = protocol
        self.recovery = recovery
        self.output_device = output_device if output_device is not None else OutputDevice()

        # each node gets its own fault model instance (stateful windows)
        # and its own RNG stream, so one node's faults never perturb
        # another's and a run is deterministic per (seed, config)
        storage_faults = (
            config.faults.build_storage_model() if config.faults is not None else None
        )
        realism = config.storage_realism
        self.storage = StableStorage(
            sim,
            owner=node_id,
            op_latency=config.storage_op_latency,
            bandwidth_bps=config.storage_bandwidth,
            trace=trace,
            faults=storage_faults,
            rng=network.rngs.stream(f"storage.faults.{node_id}")
            if storage_faults is not None
            else None,
            group_commit=realism.build_group_commit() if realism is not None else None,
        )
        self.checkpoints = CheckpointStore(
            self.storage,
            node_id,
            incremental=bool(realism is not None and realism.incremental_checkpoints),
            full_every=realism.full_checkpoint_every if realism is not None else 8,
            min_delta_bytes=realism.min_delta_bytes if realism is not None else 4_096,
            retain_history=getattr(protocol, "retain_checkpoint_history", False),
        )

        self.state = NodeState.CRASHED  # becomes LIVE in start()
        self.incarnation = 0
        #: peer -> minimum acceptable incarnation (the paper's incvector)
        self.incvector: Dict[int, int] = {}
        self.send_seqnos: Dict[int, int] = {}
        self.delivered_ids: Set[Tuple[int, int]] = set()

        self.blocked = False
        self._blocked_queue: List[Message] = []
        self._restore_queue: List[Message] = []
        self._restored_checkpoint: Optional[Checkpoint] = None
        self._crash_epoch = 0
        self.crash_count = 0

        # open causal spans (repro.sim.spans); all None while disabled
        self._episode_span: Optional[int] = None
        self._phase_span: Optional[int] = None
        self._block_span: Optional[int] = None

        protocol.attach(self)
        recovery.attach(self)

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    @property
    def is_live(self) -> bool:
        return self.state == NodeState.LIVE

    @property
    def is_recovering(self) -> bool:
        return self.state == NodeState.RECOVERING

    # ------------------------------------------------------------------
    # causal spans
    # ------------------------------------------------------------------
    def _span_phase(self, kind: Optional[str]) -> None:
        """Close the current episode phase span and open ``kind``.

        Recovery phases are contiguous by construction: each phase ends
        at the exact instant the next begins, so the critical-path
        extractor can partition the episode without gaps.
        """
        spans = self.trace.spans
        if not spans.enabled:
            return
        now = self.sim.now
        if self._phase_span is not None:
            spans.end(self._phase_span, now)
            self._phase_span = None
        if kind is not None:
            self._phase_span = spans.begin(
                kind, self.node_id, now, parent=self._episode_span
            )

    def episode_span(self) -> Optional[int]:
        """The open ``recovery.episode`` span id (for child spans)."""
        return self._episode_span

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the node: the workload's first sends, then the initial
        checkpoint (which therefore covers the initial sends' sequence
        numbers and logged data)."""
        self.state = NodeState.LIVE
        self.network.register(self.node_id, self.receive)
        self.detector.register_node(self.node_id)
        self.trace.record(self.sim.now, "node", self.node_id, "start")
        self.protocol.on_start()
        # The initial image is on disk before the process launches, so
        # this bootstrap checkpoint is durable immediately.
        self._take_checkpoint(bootstrap=True)

    def crash(self) -> None:
        """Fail-stop: every volatile structure is lost instantly."""
        if self.state == NodeState.CRASHED:
            return
        self.oracle.on_crash(self.node_id)
        if self.blocked:
            self.metrics.block_end(self.node_id, self.sim.now)
            self.trace.spans.end(self._block_span, self.sim.now, aborted=True)
            self._block_span = None
            self.blocked = False
            self._blocked_queue.clear()
        self.state = NodeState.CRASHED
        self._crash_epoch += 1
        self.crash_count += 1
        self.network.deregister(self.node_id)
        self.storage.abort_pending()
        self.app.reset()
        self.delivered_ids = set()
        self.send_seqnos = {}
        self.protocol.on_crash()
        self.recovery.on_crash()
        self.metrics.start_episode(self.node_id, self.sim.now)
        spans = self.trace.spans
        if spans.enabled:
            # a crash mid-recovery aborts the old episode; the new one
            # links to it so the trace shows the causal chain
            self._span_phase(None)
            superseded = self._episode_span
            if superseded is not None:
                spans.end(superseded, self.sim.now, aborted=True)
            self._episode_span = spans.begin(
                "recovery.episode",
                self.node_id,
                self.sim.now,
                links=(superseded,),
                crash_count=self.crash_count,
            )
            self._phase_span = spans.begin(
                "recovery.detect", self.node_id, self.sim.now,
                parent=self._episode_span,
            )
        self.trace.record(self.sim.now, "node", self.node_id, "crash")
        self.detector.notify_crash(self.node_id)
        # The watchdog restarts the process once the failure is detected
        # ("several seconds of timeouts and retrials").  Handle-free: the
        # restart is never cancelled, only invalidated by the epoch check.
        self.sim.schedule_fast(
            self.config.detection_delay,
            self._restart_if_current,
            self._crash_epoch,
            label=f"restart:{self.node_id}",
        )

    def _restart_if_current(self, epoch: int) -> None:
        if epoch == self._crash_epoch and self.state == NodeState.CRASHED:
            self.begin_restart()

    def begin_restart(self) -> None:
        """Reload the checkpoint from stable storage (a slow, real cost)."""
        self.state = NodeState.RESTORING
        self._restore_queue = []
        episode = self.metrics.episode_of(self.node_id)
        if episode is not None:
            episode.restart_time = self.sim.now
        self._span_phase("recovery.restore")
        self.network.register(self.node_id, self.receive)
        self.trace.record(self.sim.now, "node", self.node_id, "restart_begin")
        self.checkpoints.restore(self._on_restored)

    def _on_restored(self, checkpoint: Optional[Checkpoint]) -> None:
        if checkpoint is None:
            raise RuntimeError(
                f"node {self.node_id} has no durable checkpoint to restore"
            )
        if self.state != NodeState.RESTORING:
            return  # crashed again while the read was in flight
        self.apply_checkpoint(checkpoint)
        self.protocol.restore_stable(self._finish_restore)

    def apply_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Load one checkpoint's replayable state into the process.

        Normally called once per restart with the latest line; a
        protocol may call it again from ``restore_stable`` after
        swapping in an earlier line (orphaned-checkpoint fallback).
        """
        self._restored_checkpoint = checkpoint
        # one decode per restore; the fresh copy is ours to hand out
        app_state, protocol_state = checkpoint.load()
        self.app.restore(app_state)
        self.send_seqnos = dict(checkpoint.send_seqnos)
        self.delivered_ids = set(checkpoint.delivered_ids)
        self.protocol.on_restore(checkpoint, protocol_state)

    def _finish_restore(self) -> None:
        if self.state != NodeState.RESTORING:
            return
        checkpoint = self._restored_checkpoint
        # Paper step 2: incarnation <- incarnation + 1.  The counter is a
        # restart count, trivially persisted by the watchdog.
        self.incarnation += 1
        self.state = NodeState.RECOVERING
        episode = self.metrics.episode_of(self.node_id)
        if episode is not None:
            episode.restored_time = self.sim.now
        self._span_phase("recovery.gather")
        self.trace.record(
            self.sim.now,
            "node",
            self.node_id,
            "restored",
            checkpoint_id=checkpoint.checkpoint_id,
            delivered=self.app.delivered_count,
            incarnation=self.incarnation,
            # segments the restore read back: 1 for a flat image, the
            # full+delta chain length under incremental checkpointing
            chain_segments=self.checkpoints.chain_length,
        )
        queued, self._restore_queue = self._restore_queue, []
        for msg in queued:
            self.recovery.on_control(msg)
        self.recovery.begin_recovery()

    def mark_replay_start(self) -> None:
        """Recovery manager has the depinfo in hand; replay begins now.

        Centralizes what every recovery manager used to do by hand:
        stamp the episode's ``replay_start_time`` and flip the episode
        phase span from gather to replay.
        """
        episode = self.metrics.episode_of(self.node_id)
        if episode is not None:
            episode.replay_start_time = self.sim.now
        self._span_phase("recovery.replay")

    def complete_recovery(self) -> None:
        """Recovery manager finished; the process is live again."""
        # first: a recovery the oracle judges now must not count this process live
        self.oracle.on_rollback(self.node_id, self.app.delivered_count)
        self.state = NodeState.LIVE
        episode = self.metrics.episode_of(self.node_id)
        if episode is not None:
            episode.replayed_deliveries = self.metrics.replayed.get(self.node_id, 0)
        self.metrics.finish_episode(self.node_id, self.sim.now)
        self._span_phase(None)
        if self._episode_span is not None:
            self.trace.spans.end(
                self._episode_span,
                self.sim.now,
                incarnation=self.incarnation,
                replayed=self.metrics.replayed.get(self.node_id, 0),
            )
            self._episode_span = None
        self.trace.record(
            self.sim.now,
            "node",
            self.node_id,
            "recovered",
            delivered=self.app.delivered_count,
            incarnation=self.incarnation,
        )
        self.detector.notify_up(self.node_id)

    # ------------------------------------------------------------------
    # message routing
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if self.state == NodeState.CRASHED:
            return
        if self.state == NodeState.RESTORING:
            # The process image is still being read back; it cannot run
            # any code yet.  Recovery control is queued so the algorithm
            # sees announcements made during the restore; everything else
            # is dropped (it will be retransmitted or regenerated).
            if msg.kind == MessageKind.RECOVERY:
                self._restore_queue.append(msg)
            return
        if msg.kind == MessageKind.RECOVERY:
            self.recovery.on_control(msg)
            return
        # Reject stale messages from superseded incarnations (Section 3.2:
        # "A receiver rejects any message that originates from a previous
        # incarnation of its sender").
        if msg.incarnation < self.incvector.get(msg.src, 0):
            self.trace.record(
                self.sim.now, "node", self.node_id, "reject_stale",
                src=msg.src, incarnation=msg.incarnation,
            )
            return
        if msg.kind == MessageKind.PROTOCOL:
            if self.blocked and msg.mtype in BLOCKED_PROTOCOL_TYPES:
                self._blocked_queue.append(msg)
                return
            self.protocol.on_protocol_message(msg)
            return
        # application traffic
        if self.state == NodeState.RECOVERING:
            self.protocol.on_app_message_during_recovery(msg)
            return
        if self.blocked:
            self._blocked_queue.append(msg)
            return
        self.protocol.on_app_message(msg)

    # ------------------------------------------------------------------
    # application-side services
    # ------------------------------------------------------------------
    def next_ssn(self, dst: int) -> int:
        ssn = self.send_seqnos.get(dst, 0)
        self.send_seqnos[dst] = ssn + 1
        return ssn

    def deliver_app(
        self, sender: int, ssn: int, payload: Dict[str, Any]
    ) -> List[Send]:
        """Deliver one message to the application; returns its *network*
        sends.  Output sends (``dst == OUTPUT_DST``) are intercepted and
        routed to the protocol's output-commit machinery."""
        rsn = self.app.delivered_count
        sends = self.app.deliver(sender, ssn, payload)
        # the history's new (sender, ssn) is the delivery's one message
        # id: the dedup set and the causal record share the tuple
        message_id = self.app.delivery_history[-1]
        self.delivered_ids.add(message_id)
        digest = self.app.digest
        self.metrics.count_delivery(self.node_id, during_replay=self.is_recovering)
        emit = self._emit_deliver
        if emit.live:
            emit(self.sim.now, self.node_id, sender, ssn, rsn)
        else:
            emit.count += 1
        # recorded after the emit: an observer judges it against the graph before it
        self.oracle.on_deliver(self.node_id, rsn, message_id, digest)
        network_sends = []
        output_index = 0
        for send in sends:
            if send.dst == OUTPUT_DST:
                output_id = (self.node_id, rsn, output_index)
                output_index += 1
                payload_with_digest = dict(send.payload)
                payload_with_digest["_digest8"] = self.app.digest[:8]
                self.protocol.request_output_commit(output_id, payload_with_digest)
            else:
                network_sends.append(send)
        return network_sends

    def commit_output(
        self, output_id: tuple, payload: Dict[str, Any], requested_at: float
    ) -> None:
        """Release one output to the outside world (it is now safe)."""
        fresh = self.output_device.release(
            self.node_id, output_id, payload, requested_at, self.sim.now
        )
        self.trace.record(
            self.sim.now, "output", self.node_id, "commit",
            output_id=output_id, duplicate=not fresh,
            latency=self.sim.now - requested_at,
        )

    def maybe_checkpoint(self) -> None:
        """Count-based checkpoint policy (deterministic, so replay-safe)."""
        every = self.config.checkpoint_every
        if every and self.app.delivered_count % every == 0:
            self._take_checkpoint()

    def force_checkpoint(self) -> Optional[Checkpoint]:
        """Protocol-driven checkpoint outside the count-based policy.

        Used by the adaptive stack at a mode switch so the new mode
        starts from a durable line.  A no-op while the node is down or
        recovering: replay rebuilds state, and checkpointing a partially
        replayed image would corrupt the recovery horizon."""
        if not self.is_live or self.is_recovering:
            return None
        return self._take_checkpoint()

    def _take_checkpoint(self, bootstrap: bool = False) -> Checkpoint:
        spans = self.trace.spans
        ckpt_span = spans.begin(
            "node.checkpoint", self.node_id, self.sim.now, bootstrap=bootstrap,
        )

        def on_done(ckpt: Checkpoint, _done=self.protocol.on_checkpoint) -> None:
            spans.end(ckpt_span, self.sim.now, checkpoint_id=ckpt.checkpoint_id)
            # the checkpoint is now on stable storage: deliveries below its
            # count can never be replayed, so rolled-back causal archives
            # under that horizon are dead weight (oracle + sanitizer GC)
            self.trace.record(
                self.sim.now, "node", self.node_id, "checkpoint_durable",
                checkpoint_id=ckpt.checkpoint_id, delivered=ckpt.delivered_count,
            )
            self.oracle.on_gc(self.node_id, ckpt.delivered_count)
            _done(ckpt)

        checkpoint = self.checkpoints.save(
            delivered_count=self.app.delivered_count,
            app_state=self.app.snapshot(),
            send_seqnos=self.send_seqnos,
            state_bytes=self.config.state_bytes,
            taken_at=self.sim.now,
            extra=self.protocol.checkpoint_extra(),
            on_done=on_done,
            bootstrap=bootstrap,
            dirty_bytes=self.app.dirty_bytes,
            delivered_ids=self.delivered_ids,
        )
        # the snapshot captured everything dirtied so far; the next
        # delta is measured against this checkpoint
        self.app.mark_clean()
        self.trace.record(
            self.sim.now, "node", self.node_id, "checkpoint",
            checkpoint_id=checkpoint.checkpoint_id,
            delivered=self.app.delivered_count,
        )
        return checkpoint

    # ------------------------------------------------------------------
    # rollback primitives (used by optimistic and coordinated recovery)
    # ------------------------------------------------------------------
    def voluntary_rollback(self) -> None:
        """Self-inflicted rollback (an orphaned process killing itself).

        Semantically a crash, but no failure detection is needed -- the
        process knows it is rolling back, so the restart begins
        immediately.
        """
        if self.state == NodeState.CRASHED:
            return
        pre_epoch = self._crash_epoch
        self.crash()
        if self._crash_epoch == pre_epoch + 1:
            self._crash_epoch += 1  # invalidate the detection-delayed restart
            self.sim.schedule_fast(
                0.0,
                self._restart_if_current,
                self._crash_epoch,
                label=f"voluntary-restart:{self.node_id}",
            )

    def apply_snapshot(
        self,
        app_state: Dict[str, Any],
        send_seqnos: Dict[int, int],
        delivered_ids: Set[Tuple[int, int]],
    ) -> int:
        """Overwrite replayable state in place (coordinated rollback),
        adopting the arguments (a freshly decoded round image), once
        the oracle has archived what the rollback undoes.

        Returns the number of deliveries rolled back.
        """
        restored = app_state["delivered_count"]
        lost = max(0, self.app.delivered_count - restored)
        self.oracle.on_rollback(self.node_id, restored, send_seqnos)
        self.app.restore(app_state)
        self.send_seqnos = send_seqnos
        self.delivered_ids = delivered_ids
        self.metrics.rolled_back_deliveries += lost
        return lost

    # ------------------------------------------------------------------
    # blocking primitive (used by the baseline recovery algorithm)
    # ------------------------------------------------------------------
    def block(self) -> None:
        """Suspend application progress (deliveries queue up)."""
        if not self.blocked and self.is_live:
            self.blocked = True
            self.metrics.block_start(self.node_id, self.sim.now)
            self._block_span = self.trace.spans.begin(
                "node.blocked", self.node_id, self.sim.now
            )
            self.trace.record(self.sim.now, "node", self.node_id, "block")

    def unblock(self) -> None:
        """Resume application progress and drain the queue."""
        if not self.blocked:
            return
        self.blocked = False
        self.metrics.block_end(self.node_id, self.sim.now)
        self.trace.spans.end(self._block_span, self.sim.now)
        self._block_span = None
        self.trace.record(self.sim.now, "node", self.node_id, "unblock")
        queued, self._blocked_queue = self._blocked_queue, []
        for msg in queued:
            self.receive(msg)

    def blocked_app_messages(self) -> List[Message]:
        """Application messages queued while blocked.

        Blocking suspends *delivery*, but the messages themselves have
        arrived at this host; recovery may read their piggybacked
        metadata before they are delivered.
        """
        return [m for m in self._blocked_queue if m.kind is MessageKind.APPLICATION]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.node_id}, {self.state.value}, inc={self.incarnation}, "
            f"delivered={self.app.delivered_count})"
        )
