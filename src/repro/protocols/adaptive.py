"""Adaptive hybrid logging: per-process runtime protocol migration.

The paper's central result is that no single rollback-recovery protocol
wins across workloads — the communication-cost ranking flips with
message rate, fan-in, and stable-storage latency.  Every other stack in
this repository is chosen statically at config time; this one monitors
its *own* live traffic and migrates each process independently between
three logging modes at runtime, under a pluggable byte-cost model
(ground: *Adaptive Logging for Distributed In-memory Databases*,
PAPERS.md):

``pessimistic``
    Receiver-based synchronous logging: the delivery waits for a stable
    write of (determinant, data).  Costs ``body + LOG_RECORD_OVERHEAD``
    storage bytes per delivery, zero piggyback traffic, and instant
    output commit — the right end of the spectrum for a high-rate
    server externalising receipts.
``fbl``
    Plain FBL(f): determinants replicate at ``f + 1`` hosts by
    piggybacking, nothing touches stable storage.  Cheapest when bodies
    are large (nothing but ``f`` determinant copies per delivery rides
    the wire) but output commit pays acknowledged push round trips.
``optimistic``
    Manetho-style asynchronous determinant logging: the delivery
    proceeds immediately, one determinant record trickles to disk in
    the background, and until it lands the determinant also spreads by
    piggyback as a causal backstop.  Cheapest for sparse small-body
    traffic; degrades when the send rate outruns the disk (every send
    re-ships the unstable window).

All three modes are expressed over the *same* FBL substrate — sender
message logging, determinant log, piggyback absorption, gather-based
recovery — and differ only in **how an own delivery's determinant
becomes recoverable**.  That is what makes the cross-mode handoff and
cross-mode recovery tractable: a peer (or the recovery algorithm) never
needs to know which mode produced a determinant.

Mode switches happen only at *determinant-quiescent* points: no
synchronous log write in flight and no own determinant unstable.  The
switch flushes any outstanding own determinants to the adaptive log,
writes an epoch-stamped mode marker (a keyed control-plane record — the
cost ledger charges it to ``control-plane``, not ``determinant-log``),
bumps ``mode_epoch``, and forces a checkpoint so the new mode starts
from a durable line.  In-flight piggybacks minted under the old mode
are still absorbed afterwards — determinant merging is idempotent and
mode-agnostic, so nothing is orphaned by a switch.  The sanitizer's
``mode-epoch`` invariant checks all of this online.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.causality.determinant import Determinant
from repro.net.network import Message
from repro.protocols.fbl import STABLE_HOST, FamilyBasedLogging
from repro.protocols.pessimistic import LOG_RECORD_OVERHEAD
from repro.storage.volatile import host_mask

#: the three logging modes a process can be in
MODES = ("pessimistic", "fbl", "optimistic")

#: modelled on-disk size of one determinant record (matches Manetho)
DETERMINANT_RECORD_BYTES = 32

#: modelled on-disk size of the epoch-stamped mode marker
MODE_RECORD_BYTES = 24

#: modelled wire size of one det_push round trip per determinant, used
#: by the cost model to price FBL's output-commit flushes
FLUSH_RTT_BYTES = 40


class AdaptiveLogging(FamilyBasedLogging):
    """FBL substrate with per-process runtime mode migration.

    Parameters
    ----------
    f:
        Replication degree of the ``fbl`` mode (and of piggyback
        stability in general: a determinant is stable at ``f + 1`` hosts
        *or* on stable storage, whichever happens first).
    initial_mode:
        Mode every process starts in.
    eval_every:
        Controller cadence, in own deliveries.  Count-based — never
        timer-based — so replay regenerates identical decisions.
    min_dwell:
        Minimum own deliveries between two switches of this process.
    hysteresis:
        Switch only when the best mode's estimated cost is below
        ``hysteresis * current_cost`` (1.0 = switch on any improvement).
    det_record_bytes:
        Modelled size of one determinant record in the adaptive log.
    switch_plan:
        Test hook: ``{node_id: [(delivered_count, to_mode), ...]}``
        scripted switches that bypass the cost model (still subject to
        quiescence).  Plan progress survives crashes so a plan entry
        fires at most once.
    """

    name = "adaptive"
    supported_recovery = ("nonblocking", "blocking", "nonblocking-restart")

    def __init__(
        self,
        f: int = 2,
        initial_mode: str = "fbl",
        eval_every: int = 16,
        min_dwell: int = 48,
        hysteresis: float = 0.9,
        det_record_bytes: int = DETERMINANT_RECORD_BYTES,
        switch_plan: Optional[Dict[int, List[Tuple[int, str]]]] = None,
    ) -> None:
        super().__init__(f=f)
        if initial_mode not in MODES:
            raise ValueError(f"initial_mode must be one of {MODES}, got {initial_mode!r}")
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every!r}")
        if min_dwell < 0:
            raise ValueError(f"min_dwell must be >= 0, got {min_dwell!r}")
        if not (0.0 < hysteresis <= 1.0):
            raise ValueError(f"hysteresis must be in (0, 1], got {hysteresis!r}")
        if det_record_bytes < 1:
            raise ValueError(f"det_record_bytes must be >= 1, got {det_record_bytes!r}")
        self.initial_mode = initial_mode
        self.eval_every = eval_every
        self.min_dwell = min_dwell
        self.hysteresis = hysteresis
        self.det_record_bytes = det_record_bytes
        self.switch_plan = dict(switch_plan or {})
        # deliberately NOT reset on crash: a scripted switch fires once
        self._plan_idx = 0

        self.mode = initial_mode
        self.mode_epoch = 0
        self.mode_switches = 0
        self.controller_evals = 0

        #: (sender, ssn) with a synchronous log write in flight
        self._pending_sync: Set[Tuple[int, int]] = set()
        #: delivery_ids with an asynchronous determinant write in flight
        self._inflight_det_writes: Set[Tuple[int, int]] = set()
        self._switching = False
        self._switch_target: Optional[str] = None
        self._flush_in_flight = False
        self._marker_in_flight = False
        #: app messages parked while a switch drains to quiescence; they
        #: deliver under the new mode the moment the marker is durable
        self._deferred: List[Message] = []
        #: marks the delivery currently completing a synchronous log write
        self._sync_delivery = False

        # controller measurement window (reset at every evaluation)
        self._win_start = 0.0
        self._win_deliveries = 0
        self._win_body_bytes = 0
        self._win_sends = 0
        self._win_outputs = 0
        self._deliveries_since_eval = 0
        self._mode_entered_at = 0
        #: EWMA of async stable-write latency (seconds); seeded lazily
        self._storage_lag: Optional[float] = None

        #: per-mode cost attribution, surfaced via stats()
        self.mode_stats: Dict[str, Dict[str, int]] = {
            m: {"deliveries": 0, "piggyback_dets": 0, "storage_bytes": 0}
            for m in MODES
        }

    # ------------------------------------------------------------------
    # log names
    # ------------------------------------------------------------------
    def _log_name(self) -> str:
        """Determinant (and pessimistic-mode data) records."""
        return f"adlog:{self.node.node_id}"

    def _marker_name(self) -> str:
        """Epoch-stamped mode marker (a keyed control-plane record)."""
        return f"admode:{self.node.node_id}"

    # ------------------------------------------------------------------
    # receive path: mode dispatch
    # ------------------------------------------------------------------
    def on_app_message(self, msg: Message) -> None:
        self._absorb_piggyback(msg)
        key = (msg.src, msg.ssn)
        if key in self.node.delivered_ids or key in self._pending_sync:
            return  # duplicate, or already being synchronously logged
        if self._switching:
            # park the delivery so the switch reaches determinant
            # quiescence in one flush round; the piggyback above was
            # absorbed, so old-epoch information is not lost
            self._deferred.append(msg)
            return
        self._dispatch(msg)

    def _dispatch(self, msg: Message) -> None:
        self._win_body_bytes += msg.body_bytes
        if self.mode == "pessimistic":
            self._log_then_deliver(msg.src, msg.ssn, msg.payload["data"], msg.body_bytes)
        else:
            self._deliver(msg.src, msg.ssn, msg.payload["data"], msg)

    def _on_retransmit_data(self, msg: Message) -> None:
        if not self.node.is_recovering and self.mode == "pessimistic":
            key = (msg.src, msg.payload["ssn"])
            if key in self.node.delivered_ids or key in self._pending_sync:
                return
            self._win_body_bytes += msg.body_bytes
            self._log_then_deliver(
                msg.src, msg.payload["ssn"], msg.payload["data"], msg.body_bytes
            )
            return
        super()._on_retransmit_data(msg)

    def _log_then_deliver(
        self, sender: int, ssn: int, data: Dict[str, Any], body_bytes: int
    ) -> None:
        """Pessimistic mode: stable write of (determinant, data), then
        deliver.  Writes complete in issue order, so the rsn each record
        carries is exactly the delivery position its completion gets."""
        node = self.node
        rsn = node.app.delivered_count + len(self._pending_sync)
        det = Determinant(sender, ssn, node.node_id, rsn)
        self._pending_sync.add((sender, ssn))
        self.mode_stats["pessimistic"]["storage_bytes"] += body_bytes + LOG_RECORD_OVERHEAD
        epoch = node.crash_count

        def logged() -> None:
            if node.crash_count != epoch or not node.is_live:
                return  # crashed while the write was in flight
            node.trace.record(
                node.sim.now, "protocol", node.node_id, "log_commit",
                sender=sender, ssn=ssn, rsn=det.rsn,
            )
            self._pending_sync.discard((sender, ssn))
            self._sync_delivery = True
            try:
                self._deliver(sender, ssn, data, None)
            finally:
                self._sync_delivery = False
            if self._switching:
                self._try_complete_switch()

        node.storage.log_append(
            self._log_name(),
            ("sync", det.to_tuple(), data, body_bytes),
            body_bytes + LOG_RECORD_OVERHEAD,
            on_done=logged,
            stall_node=node.node_id,
        )

    # ------------------------------------------------------------------
    # determinant lifecycle: how stability is reached per mode
    # ------------------------------------------------------------------
    def _record_own_determinant(self, det: Determinant, msg: Optional[Message]) -> None:
        governing = self.mode
        mask = self._own_mask
        if self._sync_delivery:
            # the (det, data) record is already durable: stable now.
            # _track never saw it unstable, so announce stability here
            # (the sanitizer's commit-order bookkeeping rides on it)
            mask |= host_mask((STABLE_HOST,))
            self._emit_det_stable(
                self.node.sim.now, self.node.node_id,
                det.rsn, det.sender, det.ssn,
            )
        elif not self._replaying and self.mode == "optimistic":
            self._write_det_async(det)
        # replayed deliveries and recovery leftovers re-track only: their
        # determinants are already durable, gathered, or (for leftovers)
        # spread by piggyback until f+1 / flushed for outputs like FBL's
        self._track(det, mask)
        self.mode_stats[governing]["deliveries"] += 1
        self._win_deliveries += 1
        self._deliveries_since_eval += 1
        if not self._replaying:
            self._maybe_evaluate()

    def _write_det_async(self, det: Determinant) -> None:
        """Optimistic mode: one determinant record trickles to disk; the
        delivery does not wait.  Until it lands the determinant also
        spreads by piggyback (the causal backstop against orphans)."""
        node = self.node
        key = det.delivery_id
        if key in self._inflight_det_writes:
            return
        self._inflight_det_writes.add(key)
        self.mode_stats[self.mode]["storage_bytes"] += self.det_record_bytes
        issued = node.sim.now

        def done() -> None:
            self._inflight_det_writes.discard(key)
            self._observe_lag(node.sim.now - issued)
            node.trace.record(
                node.sim.now, "protocol", node.node_id, "det_durable",
                rsn=det.rsn, sender=det.sender, ssn=det.ssn,
            )
            # volatile copy may be gone if we crashed meanwhile; the
            # restart log read finds the record either way
            if det in self.det_log:
                self._track(det, self.det_log.note_logged_at(det, STABLE_HOST))
                self._check_pending_outputs()
            if self._switching:
                self._try_complete_switch()

        node.storage.log_append(
            self._log_name(), ("det", det.to_tuple()), self.det_record_bytes,
            on_done=done,
        )

    def _flush_for_output(self, rsn: int) -> None:
        if self.mode == "fbl":
            super()._flush_for_output(rsn)
            return
        # pessimistic mode: own deliveries are stable before the
        # application sees them, so only recovery leftovers can gate an
        # output; optimistic mode: the async write is (usually) already
        # in flight.  Either way one determinant record per laggard
        # closes the gap without a wire round trip.
        me = self.node.node_id
        for key in sorted(self._unstable):
            if key[0] != me or key[1] > rsn:
                continue
            det = self._unstable[key]
            if STABLE_HOST not in self.det_log.logged_at(det):
                self._write_det_async(det)

    # ------------------------------------------------------------------
    # sending: per-mode piggyback attribution
    # ------------------------------------------------------------------
    def send_app(self, dst: int, payload: Dict[str, Any], body_bytes: int) -> None:
        before = self.piggyback_determinants_sent
        super().send_app(dst, payload, body_bytes)
        self.mode_stats[self.mode]["piggyback_dets"] += (
            self.piggyback_determinants_sent - before
        )
        self._win_sends += 1

    def request_output_commit(self, output_id: tuple, payload: Dict[str, Any]) -> None:
        self._win_outputs += 1
        super().request_output_commit(output_id, payload)

    # ------------------------------------------------------------------
    # the controller: count-based, replay-deterministic
    # ------------------------------------------------------------------
    def _maybe_evaluate(self) -> None:
        node = self.node
        if (
            self._switching
            or self._replaying
            or not node.is_live
            or node.is_recovering
        ):
            return
        plan = self.switch_plan.get(node.node_id)
        if plan is not None and self._plan_idx < len(plan):
            at_count, to_mode = plan[self._plan_idx]
            if node.app.delivered_count >= at_count:
                self._plan_idx += 1
                if to_mode != self.mode:
                    self._begin_switch(to_mode)
                return
        if self._deliveries_since_eval < self.eval_every:
            return
        self._deliveries_since_eval = 0
        self.controller_evals += 1
        costs = self._estimate_costs()
        self._reset_window()
        if node.app.delivered_count - self._mode_entered_at < self.min_dwell:
            return
        best = min(MODES, key=lambda m: (costs[m], m))
        if best != self.mode and costs[best] < self.hysteresis * costs[self.mode]:
            self._begin_switch(best)

    def _estimate_costs(self) -> Dict[str, float]:
        """Estimated wire + storage bytes per delivery, per mode.

        The currency is the ledger's: every byte counts the same whether
        it crosses the wire or the disk — exactly the end-to-end total
        the E14 benchmark scores.
        """
        node = self.node
        cfg = node.config
        deliveries = max(1, self._win_deliveries)
        mean_body = self._win_body_bytes / deliveries
        outputs_per = self._win_outputs / deliveries
        window_dt = node.sim.now - self._win_start
        send_rate = self._win_sends / window_dt if window_dt > 0 else 0.0
        lag = self._storage_lag
        if lag is None:
            # no async write observed yet: price one from the device model
            lag = cfg.storage_op_latency + self.det_record_bytes / max(
                1.0, float(cfg.storage_bandwidth)
            )
        det_wire = float(cfg.determinant_bytes)
        # each unstable determinant is re-shipped on every send issued
        # during its unstable window, to at most n-1 distinct hosts
        rho = min(float(cfg.n - 1), send_rate * lag)
        return {
            "pessimistic": mean_body + LOG_RECORD_OVERHEAD,
            "fbl": self.f * det_wire
            + outputs_per * self.f * (cfg.header_bytes + FLUSH_RTT_BYTES),
            "optimistic": float(self.det_record_bytes) + rho * det_wire,
        }

    def _reset_window(self) -> None:
        self._win_start = self.node.sim.now
        self._win_deliveries = 0
        self._win_body_bytes = 0
        self._win_sends = 0
        self._win_outputs = 0

    def _observe_lag(self, sample: float) -> None:
        if self._storage_lag is None:
            self._storage_lag = sample
        else:
            self._storage_lag = 0.75 * self._storage_lag + 0.25 * sample

    # ------------------------------------------------------------------
    # the switch protocol
    # ------------------------------------------------------------------
    def _begin_switch(self, to_mode: str) -> None:
        if to_mode not in MODES:
            raise ValueError(f"unknown mode {to_mode!r}")
        self._switching = True
        self._switch_target = to_mode
        self._try_complete_switch()

    def _own_unstable(self) -> List[Determinant]:
        me = self.node.node_id
        return [self._unstable[k] for k in sorted(self._unstable) if k[0] == me]

    def _try_complete_switch(self) -> None:
        """Drive the switch to its determinant-quiescent point.

        Re-entered from every callback that can change quiescence (sync
        write completion, async determinant durability, flush batch
        durability).  The switch commits only when no synchronous write
        is in flight and no own determinant is unstable.
        """
        if not self._switching or not self.node.is_live:
            return
        if self._pending_sync or self._flush_in_flight or self._marker_in_flight:
            return
        own_unstable = self._own_unstable()
        if own_unstable:
            self._flush_unstable(own_unstable)
            return
        self._commit_switch()

    def _flush_unstable(self, dets: List[Determinant]) -> None:
        """One batched stable write covers every currently-unstable own
        determinant.  New deliveries during the write re-enter the loop;
        it converges as soon as traffic pauses for one write."""
        node = self.node
        self._flush_in_flight = True
        tuples = [d.to_tuple() for d in dets]
        size = self.det_record_bytes * len(tuples)
        self.mode_stats[self.mode]["storage_bytes"] += size
        epoch = node.crash_count
        node.trace.record(
            node.sim.now, "protocol", node.node_id, "mode_flush",
            determinants=len(tuples), to_mode=self._switch_target,
        )

        def flushed() -> None:
            self._flush_in_flight = False
            if node.crash_count != epoch or not node.is_live:
                return
            for item in tuples:
                det = Determinant.from_tuple(item)
                if det in self.det_log:
                    self._track(det, self.det_log.note_logged_at(det, STABLE_HOST))
            self._check_pending_outputs()
            self._try_complete_switch()

        node.storage.log_append(
            self._log_name(), ("dets", tuples), size, on_done=flushed
        )

    def _commit_switch(self) -> None:
        """Quiescent: durably write the epoch-stamped mode marker, then
        flip modes.

        The switch epoch's durable line is the next scheduled checkpoint
        (its ``checkpoint_extra`` carries the new mode), so a switch
        costs one marker write, not a full process image.  Only when the
        run has no count-based checkpoint cadence at all does the switch
        force its own checkpoint."""
        node = self.node
        from_mode = self.mode
        to_mode = self._switch_target
        epoch = self.mode_epoch + 1
        crash_epoch = node.crash_count

        self._marker_in_flight = True

        def durable() -> None:
            self._marker_in_flight = False
            if node.crash_count != crash_epoch or not node.is_live:
                return
            if self._pending_sync or self._own_unstable():
                # a delivery slipped in while the marker write was in
                # flight -- retransmitted in-flight traffic after a
                # recovery is not parked -- so the epoch line is no
                # longer quiescent.  Abandon this marker and drive the
                # switch loop again: flush the newcomers, re-commit.
                self._try_complete_switch()
                return
            self.mode_epoch = epoch
            self.mode = to_mode
            self.mode_switches += 1
            self._mode_entered_at = node.app.delivered_count
            self._switching = False
            self._switch_target = None
            self._reset_window()
            self._deliveries_since_eval = 0
            node.trace.record(
                node.sim.now, "protocol", node.node_id, "mode_switch",
                epoch=epoch, from_mode=from_mode, to_mode=to_mode,
                rsn=node.app.delivered_count,
            )
            # with no periodic cadence the new mode would never get a
            # durable line; take one here.  Otherwise the next scheduled
            # checkpoint (at most checkpoint_every deliveries away)
            # carries the new mode and garbage-collects old-mode records.
            if not node.config.checkpoint_every:
                node.force_checkpoint()
            # deliveries parked during the drain now run under the new mode
            deferred, self._deferred = self._deferred, []
            for msg in deferred:
                if node.crash_count != crash_epoch or not node.is_live:
                    break
                key = (msg.src, msg.ssn)
                if key in node.delivered_ids or key in self._pending_sync:
                    continue
                self._dispatch(msg)

        node.storage.write(
            self._marker_name(),
            (epoch, from_mode, to_mode, node.app.delivered_count),
            MODE_RECORD_BYTES,
            on_done=durable,
        )

    # ------------------------------------------------------------------
    # checkpoint / crash / restore: a log that spans modes
    # ------------------------------------------------------------------
    def checkpoint_extra(self) -> Dict[str, Any]:
        extra = super().checkpoint_extra()
        extra["mode"] = self.mode
        extra["mode_epoch"] = self.mode_epoch
        return extra

    def on_checkpoint(self, checkpoint: "Checkpoint") -> None:
        super().on_checkpoint(checkpoint)
        count = checkpoint.delivered_count
        if count == 0:
            return
        dropped = self.node.storage.log_truncate_head(
            self._log_name(),
            lambda entry: any(r >= count for r in self._entry_rsns(entry)),
            size_of=self._entry_size,
        )
        if dropped:
            self.node.trace.record(
                self.node.sim.now, "gc", self.node.node_id, "log_compacted",
                dropped=dropped, covered=count,
            )

    @staticmethod
    def _entry_rsns(entry: Tuple) -> Tuple[int, ...]:
        kind = entry[0]
        if kind in ("sync", "det"):
            return (entry[1][3],)
        return tuple(item[3] for item in entry[1])  # "dets" batch

    def _entry_size(self, entry: Tuple) -> int:
        kind = entry[0]
        if kind == "sync":
            return entry[3] + LOG_RECORD_OVERHEAD
        if kind == "det":
            return self.det_record_bytes
        return self.det_record_bytes * len(entry[1])

    def on_crash(self) -> None:
        super().on_crash()
        self._pending_sync.clear()
        self._inflight_det_writes.clear()
        self._switching = False
        self._switch_target = None
        self._flush_in_flight = False
        self._marker_in_flight = False
        self._sync_delivery = False
        self._deferred.clear()
        self._deliveries_since_eval = 0
        self._storage_lag = None

    def on_restore(self, checkpoint: "Checkpoint", state: Dict[str, Any]) -> None:
        super().on_restore(checkpoint, state)
        self.mode = state["mode"]
        self.mode_epoch = state["mode_epoch"]
        self._mode_entered_at = checkpoint.delivered_count
        self._reset_window()
        # a crash between the mode marker and checkpoint durability
        # legitimately rolls the epoch back; the sanitizer re-baselines
        # its monotonicity check on this event
        self.node.trace.record(
            self.node.sim.now, "protocol", self.node.node_id, "mode_restored",
            epoch=self.mode_epoch, mode=self.mode,
        )

    def restore_stable(self, on_done: Callable[[], None]) -> None:
        """Read the adaptive log back before recovery starts.

        The log spans modes: synchronous (det, data) records from
        pessimistic stretches, single determinant records from
        optimistic stretches, batched flush records from switches.  All
        determinants come back stable; pessimistic-mode records also
        carry the data, so those deliveries replay without asking any
        sender to retransmit."""
        node = self.node

        def loaded(entries: list) -> None:
            for entry in entries:
                kind = entry[0]
                if kind == "sync":
                    det = Determinant.from_tuple(tuple(entry[1]))
                    self.det_log.add(det, logged_at=(node.node_id, STABLE_HOST))
                    if det.rsn >= node.app.delivered_count:
                        self._buffer_message(det.sender, det.ssn, entry[2])
                elif kind == "det":
                    det = Determinant.from_tuple(tuple(entry[1]))
                    self.det_log.add(det, logged_at=(node.node_id, STABLE_HOST))
                else:  # "dets" flush batch
                    for item in entry[1]:
                        det = Determinant.from_tuple(tuple(item))
                        self.det_log.add(det, logged_at=(node.node_id, STABLE_HOST))
            on_done()

        node.storage.log_read(self._log_name(), LOG_RECORD_OVERHEAD + 64, loaded)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data.update(
            mode=self.mode,
            mode_epoch=self.mode_epoch,
            mode_switches=self.mode_switches,
            controller_evals=self.controller_evals,
            per_mode={m: dict(v) for m, v in self.mode_stats.items()},
            stable_log_entries=self.node.storage.log_len(self._log_name())
            if self.node is not None
            else 0,
        )
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptiveLogging(f={self.f}, mode={self.mode!r}, "
            f"epoch={self.mode_epoch})"
        )
