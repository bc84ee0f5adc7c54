"""Manetho-style logging: the ``f = n`` member of the family.

The paper: "the instance where f = n corresponds to the Manetho protocol"
and, for that case, "we model stable storage as an additional process
that never fails or sends a message."

With ``f = n`` a determinant cannot be replicated at ``f + 1 = n + 1``
real hosts, so each process *asynchronously* writes every determinant it
creates to its stable-storage log (the never-failing extra process).
A determinant becomes stable -- and stops being piggybacked -- once its
stable write completes; until then it spreads through piggybacks exactly
as in plain FBL, which is Manetho's antecedence-graph propagation in
determinant form.

On restart the process reads its stable determinant log back *before*
running the recovery algorithm; the read is charged realistic
stable-storage time and covers deliveries whose determinants never made
it into any live process's volatile log.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.causality.determinant import Determinant
from repro.net.network import Message
from repro.protocols.fbl import STABLE_HOST, FamilyBasedLogging

#: Modelled size of one determinant record on disk.
DETERMINANT_RECORD_BYTES = 32


class ManethoLogging(FamilyBasedLogging):
    """FBL(f = n) with asynchronous stable-storage determinant logging."""

    name = "manetho"
    supported_recovery = ("nonblocking", "blocking", "nonblocking-restart")

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes!r}")
        super().__init__(f=n_nodes)
        self.n_nodes = n_nodes
        self.stable_writes_pending = 0

    # ------------------------------------------------------------------
    def _log_name(self) -> str:
        return f"determinants:{self.node.node_id}"

    def _record_own_determinant(self, det: Determinant, msg: Optional[Message]) -> None:
        """Asynchronously push the new determinant to stable storage.

        Asynchronous means the delivery does not wait -- the write
        happens in the background (Manetho's key difference from
        pessimistic logging).  Completion marks the determinant stable;
        until then it spreads by piggybacking like any FBL determinant.
        """
        self._track(det, self._own_mask)
        self.stable_writes_pending += 1

        def done() -> None:
            # durable on disk regardless of whether the volatile copy
            # survived an intervening crash -- the restart log read will
            # find it, so outputs at this rsn are recoverable from here on
            self.node.trace.record(
                self.node.sim.now, "protocol", self.node.node_id, "det_durable",
                rsn=det.rsn, sender=det.sender, ssn=det.ssn,
            )
            self.stable_writes_pending -= 1
            # The determinant object is in the det log unless we crashed
            # and lost the volatile copy; only mark stability if present.
            if det in self.det_log:
                self._track(det, self.det_log.note_logged_at(det, STABLE_HOST))
                self._check_pending_outputs()

        self.node.storage.log_append(
            self._log_name(), det.to_tuple(), DETERMINANT_RECORD_BYTES, on_done=done
        )

    def on_checkpoint(self, checkpoint: "Checkpoint") -> None:
        """Compact the determinant log: determinants the checkpoint
        covers will never be replayed."""
        count = checkpoint.delivered_count
        if count == 0:
            return
        dropped = self.node.storage.log_truncate_head(
            self._log_name(),
            lambda det_tuple: det_tuple[3] >= count,
            size_of=lambda _det_tuple: DETERMINANT_RECORD_BYTES,
        )
        if dropped:
            self.node.trace.record(
                self.node.sim.now, "gc", self.node.node_id, "log_compacted",
                dropped=dropped, covered=count,
            )

    def _flush_for_output(self, rsn: int) -> None:
        """Nothing to push: the determinant's stable write is already in
        flight; output commits when it lands (Manetho's 'fast output
        commit' is one asynchronous disk write deep)."""

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self.stable_writes_pending = 0

    def restore_stable(self, on_done: Callable[[], None]) -> None:
        """Read the stable determinant log back before recovery starts."""

        def loaded(entries: list) -> None:
            for det_tuple in entries:
                det = Determinant.from_tuple(tuple(det_tuple))
                self.det_log.add(det, logged_at=(self.node.node_id, STABLE_HOST))
            on_done()

        self.node.storage.log_read(
            self._log_name(), DETERMINANT_RECORD_BYTES, loaded
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data.update(
            stable_writes_pending=self.stable_writes_pending,
            stable_log_entries=self.node.storage.log_len(self._log_name())
            if self.node is not None
            else 0,
        )
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManethoLogging(n={self.n_nodes})"
