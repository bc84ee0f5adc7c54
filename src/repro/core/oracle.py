"""The consistency oracle.

An omniscient observer, invisible to the protocols and free of simulated
cost, that records every send and delivery in the run and checks the
correctness properties the paper proves in Section 4:

* **Replay determinism** (liveness, Section 4.4): when a recovering
  process re-delivers rsn ``k``, it must deliver the *same message* and
  reach the *same state digest* as the original execution did at rsn
  ``k``.
* **Safety** (Section 4.3): no live process is left an orphan of a
  rolled-back delivery.  This is the run's one orphan rule, judged
  online in every run:

  (a) no process delivers a message whose send was rolled back and
      never re-executed (judged at the delivery);
  (b) once the clock passes a recovery instant, no live process's
      frontier reaches a delivery slot the recovery lost.  Queued
      retransmissions and regenerated sends land at the completion
      timestamp itself, so a slot a delivery refills at that same
      instant is not lost.  :meth:`ConsistencyOracle.check_safety` is
      the same clause at the end of the run, where every slot past a
      process's final history is lost.

  Optimistic logging and coordinated checkpointing leave a live
  process an orphan until it rolls back itself, so there a finding is
  pending until the orphaned process rolls back, and the run-end call
  promotes what is left.
* **Consistent cuts** (coordinated checkpointing): each committed
  snapshot round is judged at its commit, from the previous committed
  cut.  Every delivery inside the cut has its send inside the sender's
  cut (its ssn below the sender's send count at its snapshot), and, as
  no channel state is recorded, every send inside it is delivered inside it.

The causal record itself lives in :attr:`ConsistencyOracle.graph`, the
run's one :class:`~repro.sanitizer.causal.CausalGraph`, which the online
:class:`~repro.sanitizer.monitor.Sanitizer` reads and never writes.
Callers record a send or a delivery right after its ``app.send`` /
``app.deliver`` trace record.  The rule reads the clock and which
processes are live from the run (:attr:`ConsistencyOracle.sim`,
:attr:`ConsistencyOracle.nodes`), and judges a recovery at the first
call after its instant, before that call writes the graph; a crash is
such a call, so a peer is judged while it is still live.

Rollback archives are bounded: :meth:`ConsistencyOracle.on_gc` prunes
entries below a node's durable-checkpoint horizon, mirroring the
protocols' own garbage collection, so long sweeps no longer grow memory
linearly with rolled-back history.

Violations are collected, not raised, so a failing run can still be
inspected; the test suite asserts ``oracle.violations == []``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.output import CommittedOutput
from repro.sanitizer.causal import CausalGraph, DeliveryKey

#: bytes of one sha256 digest
_DIGEST = 32
#: what a digest slot no delivery has claimed holds
_NO_DIGEST = bytes(_DIGEST)


@dataclass(frozen=True)
class OracleViolation:
    """One detected breach of a correctness property.

    A finding also carries the virtual time it was judged at and the
    span chain open on its node then (innermost first; empty when the
    run records no spans)."""

    kind: str
    node: int
    detail: str
    time: Optional[float] = None
    span_chain: Tuple[Dict[str, Any], ...] = ()

    def __str__(self) -> str:
        when = "" if self.time is None else f" t={self.time:.6f}"
        chain = " <- ".join(f"{link['kind']}#{link['span']}" for link in self.span_chain)
        where = f" [{chain}]" if chain else ""
        return f"[{self.kind}]{when} node {self.node}: {self.detail}{where}"


class ConsistencyOracle:
    """Records the causal structure of the run and checks invariants.

    Event naming: the *delivery event* ``(node, rsn)`` is node's
    ``rsn``-th delivery.  The happens-before DAG has a program-order edge
    ``(x, k-1) -> (x, k)`` and, for each message, an edge from the
    sender's latest delivery before the send to the delivery of that
    message.

    ``sim`` is read for ``now``; ``transient_orphans`` holds orphan
    findings pending until a rollback (optimistic logging, coordinated
    checkpointing).  ``System``
    sets :attr:`nodes` once they are built, and :attr:`chains` when the
    run records spans.
    """

    def __init__(self, sim: Any = None, transient_orphans: bool = False) -> None:
        self.graph = CausalGraph()
        #: receiver -> the digest after each live delivery, packed: its
        #: 32 raw bytes at ``32 * rsn``, in step with graph.deliveries;
        #: a gap is zero-filled and counts as no entry
        self._digests: Dict[int, bytearray] = defaultdict(bytearray)
        self.violations: List[OracleViolation] = []
        # fed by hand, time stands still: only the run-end call judges
        self.sim = sim if sim is not None else SimpleNamespace(now=0.0)
        #: the run's processes by id (each read for ``is_live``)
        self.nodes: Sequence[Any] = ()
        #: the span chains open per node (a SpanChainTracker), or None
        self.chains: Any = None
        self._transient = transient_orphans
        #: recoveries the clock has not yet passed, oldest first:
        #: (instant, recovered node, the delivery slots it rolled back)
        self._due: List[Tuple[float, int, List[DeliveryKey]]] = []
        #: (node, rsn, finding): held until node rolls back below rsn
        self._pending: List[Tuple[int, int, OracleViolation]] = []
        #: round not yet committed -> node -> (deliveries, sends per
        #: destination) at the node's snapshot
        self._cuts: Dict[int, Dict[int, Tuple[int, Dict[int, int]]]] = {}
        #: node -> its deliveries the cut rule has judged (a prefix)
        self._judged: Dict[int, int] = {}
        #: receiver -> sender -> its deliveries in the judged prefix
        self._got: Dict[int, Dict[int, int]] = defaultdict(dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def on_send(self, sender: int, ssn: int, dst: int, deliveries_so_far: int) -> None:
        """Record a send (or its regeneration during replay).

        Replay determinism requires a regenerated send to occur at the
        same point in the sender's delivery sequence.
        """
        if self._due and self.sim.now > self._due[0][0]:
            self._judge_recoveries()
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
        the process's sha256 hex digest after the delivery.  Judged
        first: orphan clause (a), and any recovery the clock has passed."""
        if self._due and self.sim.now > self._due[0][0]:
            self._judge_recoveries()
        graph = self.graph
        archived = graph.rolled_back_sends
        if archived:  # and the membership test first: no call per delivery
            sender, ssn = message_id
            key = (sender, ssn, receiver)
            if key in archived and graph.send_is_rolled_back(*key):
                self._orphan(receiver, rsn, self.sim.now, (
                    f"delivered message ({sender}, ssn {ssn}) at rsn {rsn} "
                    f"but its send was rolled back and never re-executed"))
        previous = graph.record_delivery(receiver, rsn, message_id)
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

    def on_crash(self, node: int) -> None:
        """``node`` is about to fail: judge the recoveries the clock has
        passed while it is still live."""
        self._judge_recoveries()

    def on_rollback(
        self, node: int, final_count: int, sends: Optional[Dict[int, int]] = None
    ) -> None:
        """A recovery finished with ``node`` at ``final_count`` deliveries
        (and, after a snapshot restore, ``sends[dst]`` sends to each dst).

        Deliveries at rsn >= ``final_count`` (and the sends they caused,
        or made past ``sends``) are permanently rolled back.  They are
        archived, not judged as replay divergence, so the node's fresh
        post-recovery execution is not misreported; the slots they held are judged by orphan
        clause (b) once the clock passes this instant.  A pending
        (optimistic) finding on ``node`` at rsn >= ``final_count`` is
        undone by the rollback, and the cut rule's judged prefix of
        ``node`` is cut back to ``final_count``.
        """
        self._judge_recoveries()
        judged = self._judged.get(node, 0)
        if judged > final_count:
            got, row = self._got[node], self.graph.deliveries.get(node, ())
            for sender, _ssn in filter(None, row[final_count:judged]):
                got[sender] -= 1
            self._judged[node] = final_count
        stale = self.graph.roll_back(node, final_count, sends)
        del self._digests[node][_DIGEST * final_count:]
        if self._pending:
            self._pending = [p for p in self._pending if p[0] != node or p[1] < final_count]
        if stale:
            self._due.append((self.sim.now, node, stale))

    def on_gc(self, node: int, covered: int) -> None:
        """A durable checkpoint covers ``covered`` deliveries of ``node``:
        archived rolled-back entries below that horizon can never feed a
        future violation (see :meth:`CausalGraph.prune`) and are dropped,
        keeping the archives bounded on long runs."""
        self._judge_recoveries()
        self.graph.prune(node, covered)

    # ------------------------------------------------------------------
    # the orphan rule
    # ------------------------------------------------------------------
    def _judge_recoveries(self) -> None:
        """Clause (b) for every recovery whose instant the clock passed:
        a slot still empty is lost, and no other live process may reach it."""
        rows = self.graph.deliveries
        while self._due and self._due[0][0] < self.sim.now:
            time, recovered, stale = self._due.pop(0)
            row = rows.get(recovered, ())  # slot(), inline: every stale key is the recovered's
            lost = [key for key in stale if key[1] >= len(row) or row[key[1]] is None]
            if lost:
                frontiers = {
                    peer: len(rows[peer]) - 1
                    for peer, process in enumerate(self.nodes)
                    if peer != recovered and process.is_live and rows.get(peer)
                }
                self._orphaned(frontiers, lost, time, f"rolled back by node {recovered}'s recovery")

    def _orphaned(
        self, frontiers: Dict[int, int], lost: List[DeliveryKey], time: float, why: str
    ) -> None:
        """Flag each frontier that reaches a ``lost`` slot; one walk from
        all of them first, and one per frontier only if that reaches one."""
        reach = self.graph.reach
        top = reach(frontiers.items())
        # list comprehensions, not generators: one call each, not one per key
        if not [key for key in lost if key[1] <= top.get(key[0], -1)]:
            return
        for peer, rsn in sorted(frontiers.items()):
            below = reach(((peer, rsn),))
            tainted = sorted([key for key in lost if key[1] <= below.get(key[0], -1)])
            if tainted:
                self._orphan(peer, rsn, time, f"live process depends on deliveries {tainted} {why}")

    def _orphan(self, node: int, rsn: int, time: float, detail: str) -> None:
        """An orphan finding on ``node`` at ``rsn``, with its span chain;
        pending under optimistic logging, else a violation."""
        finding = OracleViolation("orphan", node, detail, time, self._chain(node))
        if self._transient:
            self._pending.append((node, rsn, finding))
        else:
            self.violations.append(finding)

    # ------------------------------------------------------------------
    # the cut rule
    # ------------------------------------------------------------------
    def on_snapshot(self, node: int, round_id: int, delivered: int, sends: Dict[int, int]) -> None:
        """``node`` snapshotted round ``round_id`` after ``delivered``
        deliveries, having sent ``sends[dst]`` messages to each ``dst``
        (read now, not kept)."""
        self._cuts.setdefault(round_id, {})[node] = (delivered, dict(sends))

    def on_round_commit(self, round_id: int) -> None:
        """Round ``round_id`` committed: judge its cut.  A delivery
        inside a process's cut is judged once, at the first commit whose
        cut holds it; older rounds can no longer commit."""
        cut = self._cuts.pop(round_id, {})
        for old in [r for r in self._cuts if r < round_id]:
            del self._cuts[old]
        missing = [p for p in range(len(self.nodes)) if p not in cut]
        if missing:
            self._flag("inconsistent-cut", missing[0], (
                f"round {round_id} committed without snapshots from nodes {missing}"))
            return
        rows = self.graph.deliveries
        for receiver, (delivered, _sends) in sorted(cut.items()):
            judged = self._judged.get(receiver, 0)
            got = self._got[receiver]
            for rsn, message in enumerate(rows.get(receiver, ())[judged:delivered], judged):
                if message is None:
                    continue
                sender, ssn = message
                got[sender] = got.get(sender, 0) + 1
                inside = cut[sender][1].get(receiver, 0)
                if ssn >= inside:
                    self._flag("inconsistent-cut", receiver, (
                        f"round {round_id}'s cut holds the delivery of ({sender}, "
                        f"ssn {ssn}) at rsn {rsn}, but node {sender}'s cut holds "
                        f"only its first {inside} sends to node {receiver}"))
            self._judged[receiver] = max(judged, delivered)
        for sender, (_delivered, sends) in sorted(cut.items()):
            for receiver, inside in sorted(sends.items()):
                got = self._got[receiver].get(sender, 0)
                if got < inside:
                    self._flag("inconsistent-cut", receiver, (
                        f"round {round_id}'s cut holds node {sender}'s first "
                        f"{inside} sends to node {receiver}, but only {got} of "
                        f"them delivered"))

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def check_safety(self, final_histories: Dict[int, List[Tuple[int, int]]]) -> None:
        """The orphan rule at the end of the run, where every slot past a
        process's final history is lost: one walk from every final
        frontier (which also checks each history against the record),
        per-frontier walks only if it reaches a lost slot, and the
        pending findings promoted.

        ``final_histories`` maps node -> its delivery history (list of
        ``(sender, ssn)``) at the end of the run, read, not kept.
        """
        frontiers = {
            node: len(history) - 1 for node, history in final_histories.items() if history
        }
        lost: List[DeliveryKey] = []
        for node, top in sorted(self.graph.reach(frontiers.items()).items()):
            history = final_histories.get(node, [])
            survived = min(top + 1, len(history))
            live = self.graph.deliveries.get(node, [])[:survived]
            if live != history[:survived]:  # normally the very same tuples
                for rsn, recorded in enumerate(live):
                    if recorded is not None and recorded != tuple(history[rsn]):
                        self._flag("history-divergence", node, (
                            f"final history at rsn {rsn} is {history[rsn]}, "
                            f"oracle recorded {recorded}"))
            lost.extend((node, rsn) for rsn in range(survived, top + 1))
        if lost:
            self._orphaned(frontiers, lost, self.sim.now, "that did not survive the run")
        for _node, _rsn, finding in self._pending:
            self.violations.append(replace(
                finding, detail=f"{finding.detail} (still orphaned when the run ended)"))
        self._pending.clear()

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

    def _chain(self, node: int) -> Tuple[Dict[str, Any], ...]:
        """The span chain open on ``node`` now (empty without spans)."""
        return tuple(self.chains.chain(node)) if self.chains is not None else ()

    def _flag(self, kind: str, node: int, detail: str) -> None:
        self.violations.append(OracleViolation(kind, node, detail, self.sim.now, self._chain(node)))

    @property
    def consistent(self) -> bool:
        """No violations so far."""
        return not self.violations

    def deliveries_recorded(self) -> int:
        """Total distinct delivery events observed."""
        return sum(len(row) - row.count(None) for row in self.graph.deliveries.values())

