"""The consistency oracle.

An omniscient observer, invisible to the protocols and free of simulated
cost, that records every send and delivery in the run and checks the
correctness properties the paper proves in Section 4:

* **Replay determinism** (liveness, Section 4.4): when a recovering
  process re-delivers rsn ``k``, it must deliver the *same message* and
  reach the *same state digest* as the original execution did at rsn
  ``k``.
* **Safety** (Section 4.3): at the end of the run, every antecedent of a
  delivery that survived at any process must itself have survived -- no
  live process may be left an orphan of a rolled-back delivery.

The causal record itself lives in :attr:`ConsistencyOracle.graph`, the
run's one :class:`~repro.sanitizer.causal.CausalGraph`, which the online
:class:`~repro.sanitizer.monitor.Sanitizer` reads mid-run and never
writes.  Callers record a send or a delivery right after its
``app.send`` / ``app.deliver`` trace record, so the monitor judges that
record against the graph as it was when it was made.  The oracle layers
replay-determinism bookkeeping (state digests) on top and audits safety
once at the end.

Rollback archives are bounded: :meth:`ConsistencyOracle.on_gc` prunes
entries below a node's durable-checkpoint horizon, mirroring the
protocols' own garbage collection, so long sweeps no longer grow memory
linearly with rolled-back history.

Violations are collected, not raised, so a failing run can still be
inspected; the test suite asserts ``oracle.violations == []``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.output import CommittedOutput
from repro.sanitizer.causal import CausalGraph

#: bytes of one sha256 digest
_DIGEST = 32
#: what a digest slot no delivery has claimed holds
_NO_DIGEST = bytes(_DIGEST)


@dataclass(frozen=True)
class OracleViolation:
    """One detected breach of a correctness property."""

    kind: str
    node: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] node {self.node}: {self.detail}"


class ConsistencyOracle:
    """Records the causal structure of the run and checks invariants.

    Event naming: the *delivery event* ``(node, rsn)`` is node's
    ``rsn``-th delivery.  The happens-before DAG has a program-order edge
    ``(x, k-1) -> (x, k)`` and, for each message, an edge from the
    sender's latest delivery before the send to the delivery of that
    message.
    """

    def __init__(self) -> None:
        self.graph = CausalGraph()
        #: receiver -> the digest after each live delivery, packed: its
        #: 32 raw bytes at ``32 * rsn``, in step with graph.deliveries;
        #: a gap is zero-filled and counts as no entry
        self._digests: Dict[int, bytearray] = defaultdict(bytearray)
        self.violations: List[OracleViolation] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def on_send(self, sender: int, ssn: int, dst: int, deliveries_so_far: int) -> None:
        """Record a send (or its regeneration during replay).

        Replay determinism requires a regenerated send to occur at the
        same point in the sender's delivery sequence.
        """
        previous = self.graph.record_send(sender, ssn, dst, deliveries_so_far)
        if previous is not None and previous != deliveries_so_far:
            self._flag("send-divergence", sender, (
                f"message ssn={ssn} to {dst} originally sent after "
                f"{previous} deliveries, regenerated after {deliveries_so_far}"))

    def on_deliver(
        self, receiver: int, rsn: int, message_id: Tuple[int, int], digest: str
    ) -> None:
        """Record the delivery (or replay) of ``message_id = (sender,
        ssn)``; the tuple is stored as given, not copied.  ``digest`` is
        the process's sha256 hex digest after the delivery."""
        previous = self.graph.record_delivery(receiver, rsn, message_id)
        if previous is None:
            row, at = self._digests[receiver], _DIGEST * rsn
            if at >= len(row):
                if at > len(row):
                    row += bytes(at - len(row))  # zero-fill a gap
                row += bytes.fromhex(digest)
            elif row[at:at + _DIGEST] == _NO_DIGEST:
                row[at:at + _DIGEST] = bytes.fromhex(digest)
            return
        if previous != message_id:
            self._flag("replay-order", receiver, (
                f"rsn {rsn} originally delivered {previous}, replayed as {message_id}"))
        elif self._digest(receiver, rsn) != bytes.fromhex(digest):
            self._flag("replay-digest", receiver, f"rsn {rsn} digest diverged on replay")

    def on_rollback(self, node: int, final_count: int) -> None:
        """A recovery finished with ``node`` at ``final_count`` deliveries.

        Deliveries at rsn >= ``final_count`` (and the sends they caused)
        were *invisible* -- no surviving delivery depends on them -- and
        are permanently rolled back.  They are forgotten so that the
        node's fresh post-recovery execution is not misreported as replay
        divergence.  The safety check will still flag any surviving
        delivery that depended on them, because its antecedent events are
        reconstructed from the surviving record.
        """
        self.graph.roll_back(node, final_count)
        del self._digests[node][_DIGEST * final_count:]

    def on_gc(self, node: int, covered: int) -> None:
        """A durable checkpoint covers ``covered`` deliveries of ``node``:
        archived rolled-back entries below that horizon can never feed a
        future violation (see :meth:`CausalGraph.prune`) and are dropped,
        keeping the archives bounded on long runs."""
        self.graph.prune(node, covered)

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def check_safety(self, final_histories: Dict[int, List[Tuple[int, int]]]) -> None:
        """Verify no surviving delivery depends on a rolled-back delivery.

        ``final_histories`` maps node -> its delivery history (list of
        ``(sender, ssn)``) at the end of the run, read, not kept.  A
        delivery event ``(x, k)`` *survived* iff ``k < len(final_histories[x])``.
        """
        reached = self.graph.reach(
            (node, len(history) - 1)
            for node, history in final_histories.items()
            if history
        )
        for node, top in sorted(reached.items()):
            history = final_histories.get(node, [])
            survived = min(top + 1, len(history))
            live = self.graph.deliveries.get(node, [])[:survived]
            if live != history[:survived]:  # normally the very same tuples
                for rsn, recorded in enumerate(live):
                    if recorded is not None and recorded != tuple(history[rsn]):
                        self._flag("history-divergence", node, (
                            f"final history at rsn {rsn} is {history[rsn]}, "
                            f"oracle recorded {recorded}"))
            for rsn in range(survived, top + 1):
                self._flag("orphan", node, (
                    f"delivery (node={node}, rsn={rsn}) was rolled back but a "
                    f"surviving delivery depends on it"))

    def check_outputs(self, outputs: Iterable[CommittedOutput]) -> None:
        """No committed output may stem from a permanently rolled-back
        delivery: the digest recorded at commit time must match the
        (surviving or replay-verified) delivery at that slot."""
        for record in outputs:
            node, rsn, _index = record.output_id
            expected = record.payload.get("_digest8")
            if expected is None:
                continue
            digest = self._digest(node, rsn)
            if digest is None or digest[:4].hex() != expected:
                self._flag("output-from-rolled-back-state", node, (
                    f"output {record.output_id} was released but the "
                    f"delivery that produced it did not survive"))

    def _digest(self, node: int, rsn: int) -> Optional[bytes]:
        """The 32 digest bytes recorded for ``node``'s delivery ``rsn``,
        or ``None`` where there is none (past the row, or a gap)."""
        row = self._digests.get(node)
        if row is None or rsn < 0:
            return None
        digest = bytes(row[_DIGEST * rsn:_DIGEST * (rsn + 1)])
        return digest if len(digest) == _DIGEST and digest != _NO_DIGEST else None

    def _flag(self, kind: str, node: int, detail: str) -> None:
        self.violations.append(OracleViolation(kind, node, detail))

    @property
    def consistent(self) -> bool:
        """No violations so far."""
        return not self.violations

    def deliveries_recorded(self) -> int:
        """Total distinct delivery events observed."""
        return sum(len(row) - row.count(None) for row in self.graph.deliveries.values())


class NullOracle(ConsistencyOracle):
    """An oracle that observes nothing.

    Used for protocols whose post-rollback re-execution legitimately
    diverges from the original run (coordinated checkpointing re-executes
    live rather than replaying), where the replay-determinism checks do
    not apply.
    """

    def on_send(self, sender: int, ssn: int, dst: int, deliveries_so_far: int) -> None:
        pass

    def on_deliver(
        self, receiver: int, rsn: int, message_id: Tuple[int, int], digest: str
    ) -> None:
        pass

    def on_rollback(self, node: int, final_count: int) -> None:
        pass

    def on_gc(self, node: int, covered: int) -> None:
        pass

    def check_safety(self, final_histories: Dict[int, List[Tuple[int, int]]]) -> None:
        pass

    def check_outputs(self, outputs: Iterable[CommittedOutput]) -> None:
        pass
