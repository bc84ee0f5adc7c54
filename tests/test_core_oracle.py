"""Unit tests for the consistency oracle, and its orphan rule in runs."""

from hashlib import sha256
from types import SimpleNamespace

import pytest

from repro import build_system
from repro.core.oracle import ConsistencyOracle, OracleViolation
from repro.sim.spans import SpanChainTracker
from repro.sim.trace import TraceRecorder

from test_chaos import chaos_config


def digest(state: str) -> str:
    """A process digest as the application hands it over: sha256, hex."""
    return sha256(state.encode()).hexdigest()


def test_clean_run_is_consistent():
    oracle = ConsistencyOracle()
    oracle.on_send(0, 0, 1, 0)
    oracle.on_deliver(1, 0, (0, 0), digest("d1"))
    assert oracle.consistent
    oracle.check_safety({0: [], 1: [(0, 0)]})
    assert oracle.consistent


def test_replay_matching_original_is_clean():
    oracle = ConsistencyOracle()
    oracle.on_send(0, 0, 1, 0)
    oracle.on_deliver(1, 0, (0, 0), digest("d1"))
    # replay: identical send and delivery
    oracle.on_send(0, 0, 1, 0)
    oracle.on_deliver(1, 0, (0, 0), digest("d1"))
    assert oracle.consistent


def test_replay_order_divergence_detected():
    oracle = ConsistencyOracle()
    oracle.on_deliver(1, 0, (0, 0), digest("d1"))
    oracle.on_deliver(1, 0, (2, 5), digest("d1"))  # same rsn, different message
    assert not oracle.consistent
    assert oracle.violations[0].kind == "replay-order"


def test_replay_digest_divergence_detected():
    oracle = ConsistencyOracle()
    oracle.on_deliver(1, 0, (0, 0), digest("d1"))
    oracle.on_deliver(1, 0, (0, 0), digest("DIFFERENT"))
    assert not oracle.consistent
    assert oracle.violations[0].kind == "replay-digest"


def test_send_divergence_detected():
    oracle = ConsistencyOracle()
    oracle.on_send(0, 3, 1, 5)
    oracle.on_send(0, 3, 1, 9)  # regenerated at a different point
    assert not oracle.consistent
    assert oracle.violations[0].kind == "send-divergence"


def test_orphan_detected():
    """A surviving delivery depending on a rolled-back delivery."""
    oracle = ConsistencyOracle()
    # p delivers m at rsn 0, then sends to q, which delivers it
    oracle.on_deliver(0, 0, (9, 0), digest("p"))
    oracle.on_send(0, 0, 1, 1)  # p's send happened after 1 delivery
    oracle.on_deliver(1, 0, (0, 0), digest("q"))
    # p's delivery was rolled back (final history empty), q's survived
    oracle.check_safety({0: [], 1: [(0, 0)], 9: []})
    assert not oracle.consistent
    assert any(v.kind == "orphan" for v in oracle.violations)


def test_rollback_forgets_invisible_suffix():
    """Rolled-back deliveries do not trigger false replay divergence."""
    oracle = ConsistencyOracle()
    oracle.on_deliver(1, 0, (0, 0), digest("a"))
    oracle.on_deliver(1, 1, (2, 0), digest("b"))  # this one will be rolled back
    oracle.on_rollback(1, 1)
    oracle.on_deliver(1, 1, (3, 0), digest("c"))  # fresh execution takes rsn 1
    assert oracle.consistent


def test_digests_are_one_packed_row_and_a_gap_is_no_entry():
    """A receiver's digests are 32 raw bytes per rsn in one row: a
    delivery past the end zero-fills the gap, which reads as no entry
    until its own delivery claims it, and a rollback cuts the row."""
    oracle = ConsistencyOracle()
    oracle.on_deliver(1, 2, (0, 2), digest("c"))
    assert len(oracle._digests[1]) == 3 * 32
    assert oracle._digest(1, 0) is None and oracle._digest(1, 3) is None
    assert oracle._digest(1, 2) == bytes.fromhex(digest("c"))
    oracle.on_deliver(1, 0, (0, 0), digest("a"))
    oracle.on_deliver(1, 2, (0, 2), digest("c"))  # a replay that matches
    assert oracle._digest(1, 0) == bytes.fromhex(digest("a"))
    assert oracle.consistent
    oracle.on_rollback(1, 1)
    assert len(oracle._digests[1]) == 32 and oracle._digest(1, 2) is None
    oracle.on_deliver(1, 1, (3, 0), digest("b"))
    oracle.on_deliver(1, 1, (3, 0), digest("DIFFERENT"))
    assert [v.kind for v in oracle.violations] == ["replay-digest"]


def test_rollback_archives_sends():
    oracle = ConsistencyOracle()
    oracle.on_send(0, 5, 1, 10)  # sent after 10 deliveries
    oracle.on_rollback(0, 4)  # rolled back to 4 deliveries
    oracle.on_send(0, 5, 1, 6)  # ssn reused by the new execution
    assert oracle.consistent


def test_snapshot_rollback_archives_sends_past_the_restored_counts():
    """A snapshot restore hands back the send counts it restored: a send
    at or past them is undone whatever its delivery count, and its
    re-execution may come at any point.  A replay restores no counts,
    so there the same send regenerated elsewhere is a divergence."""
    for sends, found in (({}, []), (None, ["send-divergence"])):
        oracle = ConsistencyOracle()
        oracle.on_send(0, 0, 1, 0)  # released with no delivery since the snapshot
        oracle.on_rollback(0, 0, sends)
        oracle.on_send(0, 0, 1, 2)  # re-executed after two deliveries
        assert [v.kind for v in oracle.violations] == found


def test_orphan_still_detected_after_rollback_archiving():
    """Archived events keep their causal edges for the safety check."""
    oracle = ConsistencyOracle()
    oracle.on_deliver(0, 0, (9, 0), digest("p"))
    oracle.on_send(0, 0, 1, 1)
    oracle.on_deliver(1, 0, (0, 0), digest("q"))
    oracle.on_rollback(0, 0)  # p rolled back to zero deliveries
    oracle.check_safety({0: [], 1: [(0, 0)], 9: []})
    assert any(v.kind == "orphan" for v in oracle.violations)


def test_history_divergence_detected():
    oracle = ConsistencyOracle()
    oracle.on_deliver(1, 0, (0, 0), digest("a"))
    oracle.check_safety({1: [(9, 9)]})
    assert any(v.kind == "history-divergence" for v in oracle.violations)


def test_violation_str():
    violation = OracleViolation(kind="orphan", node=3, detail="boom")
    assert "orphan" in str(violation)
    assert "3" in str(violation)


def test_deliveries_recorded_counts_unique():
    oracle = ConsistencyOracle()
    oracle.on_deliver(1, 0, (0, 0), digest("a"))
    oracle.on_deliver(1, 0, (0, 0), digest("a"))
    oracle.on_deliver(1, 1, (0, 1), digest("b"))
    assert oracle.deliveries_recorded() == 2


# ----------------------------------------------------------------------
# the orphan rule, fed by hand in the order a run makes the calls
# ----------------------------------------------------------------------
class Run:
    """What the oracle reads from a run: the clock, which processes are
    live, and the span chains open on each (fed as span records)."""

    def __init__(self, n=3):
        self.now = 0.0
        self.oracle = ConsistencyOracle(self)
        self.oracle.nodes = [SimpleNamespace(is_live=True) for _ in range(n)]
        self.oracle.chains = SpanChainTracker()
        self.trace = TraceRecorder()
        self.trace.subscribe(self.oracle.chains.on_event)

    def at(self, time):
        self.now = time
        return self.oracle

    def span(self, time, node, span, kind):
        self.trace.record(time, "span", node, "begin", span=span, kind=kind)

    def crash(self, time, node):
        self.at(time).on_crash(node)
        self.oracle.nodes[node].is_live = False

    def recover(self, time, node, delivered, sends=None):
        self.at(time).on_rollback(node, delivered, sends)
        self.oracle.nodes[node].is_live = True


def node_0_depends_on_node_1s_lost_delivery(run):
    """Node 1 delivers (2, 0) and sends (1, 1) to node 0 from that state;
    node 0 delivers it inside a recovery-episode span; node 1 fails and
    recovers with no deliveries."""
    run.at(0.10).on_send(2, 0, 1, 0)
    run.at(0.12).on_deliver(1, 0, (2, 0), digest("n1"))
    run.at(0.14).on_send(1, 1, 0, 1)
    run.span(0.30, 0, 9, "recovery.episode")
    run.at(0.31).on_deliver(0, 0, (1, 1), digest("n0"))
    run.crash(0.40, 1)
    run.recover(0.50, 1, 0)


def test_orphan_delivery_caught_with_span_chain():
    """Delivering a message whose send was rolled back and never
    re-executed is an orphan, flagged at the delivery with the span
    chain that was open on the receiver."""
    run = Run()
    # node 1 delivers once, then sends ssn 5 to node 0 from that state
    run.at(0.10).on_deliver(1, 0, (2, 0), digest("n1"))
    run.at(0.11).on_send(1, 5, 0, 1)
    # node 1 crashes and recovers having lost that delivery (and send)
    run.crash(0.20, 1)
    run.recover(0.50, 1, 0)
    # node 0, mid-checkpoint, delivers the rolled-back message anyway
    run.span(0.60, 0, 7, "node.checkpoint")
    run.at(0.61).on_deliver(0, 0, (1, 5), digest("n0"))
    violation = run.oracle.violations[0]
    assert violation.kind == "orphan"
    assert violation.node == 0
    assert violation.time == 0.61
    assert "rolled back" in violation.detail
    assert [link["kind"] for link in violation.span_chain] == ["node.checkpoint"]
    assert "node.checkpoint#7" in str(violation)


def test_replay_findings_carry_time_and_span_chain():
    """A divergent replay is flagged with the virtual time of the call
    that found it and the span chain open on its node then, as an
    orphan finding is; without a chain tracker the chain is empty."""
    run = Run()
    run.at(0.10).on_send(0, 3, 1, 0)
    run.at(0.12).on_deliver(1, 0, (0, 3), digest("n1"))
    run.at(0.13).on_deliver(1, 1, (2, 0), digest("n1 again"))
    # node 1 replays, diverging on both deliveries; node 0 regenerates
    # its send at a different point in its delivery sequence
    run.span(0.40, 1, 4, "recovery.replay")
    run.at(0.41).on_deliver(1, 0, (0, 3), digest("diverged"))
    run.at(0.42).on_deliver(1, 1, (2, 9), digest("n1 again"))
    run.span(0.50, 0, 5, "recovery.episode")
    run.at(0.51).on_send(0, 3, 1, 2)
    found = [
        (v.kind, v.node, v.time, [link["kind"] for link in v.span_chain])
        for v in run.oracle.violations
    ]
    assert found == [
        ("replay-digest", 1, 0.41, ["recovery.replay"]),
        ("replay-order", 1, 0.42, ["recovery.replay"]),
        ("send-divergence", 0, 0.51, ["recovery.episode"]),
    ]
    assert "t=0.410000" in str(run.oracle.violations[0])
    assert "recovery.replay#4" in str(run.oracle.violations[0])

    oracle = ConsistencyOracle(SimpleNamespace(now=0.7))
    oracle.on_deliver(1, 0, (0, 0), digest("d1"))
    oracle.on_deliver(1, 0, (0, 0), digest("d2"))
    (violation,) = oracle.violations
    assert (violation.kind, violation.time, violation.span_chain) == ("replay-digest", 0.7, ())


def test_recovery_orphaned_frontier_caught_after_clock_advance():
    """A live process left dependent on a delivery the recovery lost is
    flagged once the clock moves past the recovery instant."""
    run = Run()
    node_0_depends_on_node_1s_lost_delivery(run)
    assert run.oracle.consistent  # deferred: same-instant refills must be allowed
    run.at(0.60).on_send(2, 1, 1, 0)
    (violation,) = run.oracle.violations
    assert violation.kind == "orphan"
    assert violation.node == 0
    assert violation.time == 0.50
    assert "(1, 0)" in violation.detail
    assert [link["kind"] for link in violation.span_chain] == ["recovery.episode"]


def test_recovery_rollback_healed_at_same_instant_is_clean():
    """Slots re-occupied at the recovery timestamp itself (queued
    retransmissions) are restored state, not orphans."""
    run = Run()
    node_0_depends_on_node_1s_lost_delivery(run)
    # the queued retransmission lands at the recovery instant
    run.at(0.50).on_deliver(1, 0, (2, 0), digest("n1"))
    run.at(0.60).on_send(2, 1, 1, 0)
    run.oracle.check_safety({0: [(1, 1)], 1: [(2, 0)], 2: []})
    assert run.oracle.consistent, [str(v) for v in run.oracle.violations]


def lost_slot_refilled_by_another_message(run):
    node_0_depends_on_node_1s_lost_delivery(run)
    run.at(0.60).on_send(2, 1, 1, 0)
    run.at(0.70).on_deliver(1, 0, (2, 1), digest("n1 again"))
    run.oracle.check_safety({0: [(1, 1)], 1: [(2, 1)], 2: []})


def test_lost_slot_refilled_by_a_different_message_is_an_orphan():
    """Node 0 depends on node 1's rsn 0 as it was, (2, 0); after the
    recovery instant that slot is refilled by (2, 1).  Clause (b) flags
    it when the clock passes the instant; the run-end walk alone, which
    sees only that node 1's history is long enough, does not."""
    run = Run()
    lost_slot_refilled_by_another_message(run)
    assert [(v.kind, v.node, v.time) for v in run.oracle.violations] == [("orphan", 0, 0.50)]
    run = Run()
    run.oracle.sim = SimpleNamespace(now=0.0)  # no instant ever passes
    lost_slot_refilled_by_another_message(run)
    assert run.oracle.consistent


def test_recovery_judged_at_the_first_call_after_its_instant():
    """No call into the oracle comes between the recovery instant and a
    peer's crash: the crash is judged first, while the peer is live."""
    run = Run()
    node_0_depends_on_node_1s_lost_delivery(run)
    run.crash(0.55, 0)
    assert [(v.node, v.time) for v in run.oracle.violations] == [(0, 0.50)]
    # a crash at the recovery instant itself judges nothing
    run = Run()
    node_0_depends_on_node_1s_lost_delivery(run)
    run.crash(0.50, 0)
    run.at(0.60).on_send(2, 1, 1, 0)
    assert run.oracle.consistent


def test_transient_orphan_is_pending_until_the_process_rolls_back():
    """Under optimistic logging a finding waits for the orphan's own
    rollback: one below its rsn clears it, and the run-end call
    promotes what is left (here with the run-end judgement's own)."""
    for rolled_back in (True, False):
        run = Run()
        run.oracle._transient = True
        node_0_depends_on_node_1s_lost_delivery(run)
        run.at(0.60).on_send(2, 1, 1, 0)
        assert run.oracle.consistent
        if rolled_back:
            run.crash(0.70, 0)
            run.recover(0.80, 0, 0)
        run.oracle.check_safety({0: [] if rolled_back else [(1, 1)], 1: [], 2: []})
        found = [(v.kind, v.node, v.time) for v in run.oracle.violations]
        assert found == ([] if rolled_back else [("orphan", 0, 0.50), ("orphan", 0, 0.60)])
        assert all(v.detail.endswith("when the run ended)") for v in run.oracle.violations)


# ----------------------------------------------------------------------
# the cut rule, fed by hand in the order coordinated checkpointing makes
# the calls: a snapshot per process, then the round's commit
# ----------------------------------------------------------------------
def one_message_each_way(run):
    """Node 0 sends ssn 0 to node 1, which delivers it and answers with
    its ssn 0; node 0 delivers that: each has delivered once and sent
    once."""
    run.at(0.10).on_send(0, 0, 1, 0)
    run.at(0.11).on_deliver(1, 0, (0, 0), digest("n1"))
    run.at(0.12).on_send(1, 0, 0, 1)
    run.at(0.13).on_deliver(0, 0, (1, 0), digest("n0"))


def test_consistent_cut_passes_and_leaves_no_round_state():
    run = Run(n=2)
    one_message_each_way(run)
    run.at(0.20).on_snapshot(0, 1, 1, {1: 1})
    run.at(0.21).on_snapshot(1, 1, 1, {0: 1})
    run.at(0.30).on_round_commit(1)
    assert run.oracle.consistent, [str(v) for v in run.oracle.violations]
    assert run.oracle._cuts == {}


def test_delivery_of_a_send_outside_its_senders_cut_is_flagged():
    """Node 0 snapshots before its send and releases it at once; node 1
    delivers it before its own snapshot, so round 1's cut holds a
    delivery whose ssn is at the sender's snapshot send count."""
    run = Run(n=2)
    run.at(0.10).on_snapshot(0, 1, 0, {})
    run.at(0.11).on_send(0, 0, 1, 0)  # the delivery count cannot tell: still 0
    run.at(0.12).on_deliver(1, 0, (0, 0), digest("n1"))
    run.at(0.13).on_snapshot(1, 1, 1, {})
    run.span(0.14, 1, 3, "storage.write")
    run.at(0.20).on_round_commit(1)
    (violation,) = run.oracle.violations
    assert (violation.kind, violation.node, violation.time) == ("inconsistent-cut", 1, 0.20)
    assert violation.detail == (
        "round 1's cut holds the delivery of (0, ssn 0) at rsn 0, but node 0's "
        "cut holds only its first 0 sends to node 1")
    assert [link["kind"] for link in violation.span_chain] == ["storage.write"]


def test_send_inside_the_cut_left_undelivered_is_flagged():
    """Node 0's cut holds its send to node 1, but node 1 snapshots
    before delivering it: the protocol records no channel state, so the
    message is lost to the cut."""
    run = Run(n=2)
    run.at(0.10).on_send(0, 0, 1, 0)
    run.at(0.11).on_snapshot(0, 1, 0, {1: 1})
    run.at(0.12).on_snapshot(1, 1, 0, {})
    run.at(0.13).on_deliver(1, 0, (0, 0), digest("n1"))
    run.at(0.20).on_round_commit(1)
    (violation,) = run.oracle.violations
    assert (violation.kind, violation.node) == ("inconsistent-cut", 1)
    assert violation.detail == (
        "round 1's cut holds node 0's first 1 sends to node 1, but only 0 of them delivered")


def test_round_committed_without_every_snapshot_is_flagged():
    run = Run(n=2)
    run.at(0.10).on_snapshot(0, 1, 0, {})
    run.at(0.20).on_round_commit(1)
    assert [(v.kind, v.detail) for v in run.oracle.violations] == [
        ("inconsistent-cut", "round 1 committed without snapshots from nodes [1]")]


def test_a_delivery_is_judged_once_and_again_after_a_rollback_undoes_it():
    """The rule walks only the deliveries since the previous committed
    cut: a delivery round 1 flagged is not flagged again by round 2,
    whose cut holds its send.  A rollback below the judged prefix
    un-judges it, so its re-execution is judged at the next commit."""
    run = Run(n=2)
    run.at(0.10).on_snapshot(0, 1, 0, {})
    run.at(0.11).on_send(0, 0, 1, 0)
    run.at(0.12).on_deliver(1, 0, (0, 0), digest("n1"))
    run.at(0.13).on_snapshot(1, 1, 1, {})
    run.at(0.20).on_round_commit(1)
    run.at(0.30).on_snapshot(0, 2, 0, {1: 1})
    run.at(0.31).on_snapshot(1, 2, 1, {})
    run.at(0.40).on_round_commit(2)
    assert [v.time for v in run.oracle.violations] == [0.20]
    # both roll back to round 0's empty cut; node 1 re-delivers early
    run.recover(0.50, 0, 0, {})
    run.recover(0.51, 1, 0, {})
    run.at(0.60).on_send(0, 0, 1, 0)
    run.at(0.61).on_deliver(1, 0, (0, 0), digest("n1"))
    run.at(0.62).on_snapshot(0, 3, 0, {})
    run.at(0.63).on_snapshot(1, 3, 1, {})
    run.at(0.70).on_round_commit(3)
    assert [v.time for v in run.oracle.violations] == [0.20, 0.70]


def test_a_rollback_uncounts_the_deliveries_it_undid():
    """Round 1's cut holds node 1's delivery of node 0's ssn 0.  Both
    roll back to round 0's empty cut; node 0 sends ssn 0 again, and
    round 2's cut holds that send but not its delivery.  The undone
    delivery no longer counts for the channel, so the send is flagged."""
    run = Run(n=2)
    run.at(0.10).on_send(0, 0, 1, 0)
    run.at(0.11).on_deliver(1, 0, (0, 0), digest("n1"))
    run.at(0.12).on_snapshot(0, 1, 0, {1: 1})
    run.at(0.13).on_snapshot(1, 1, 1, {})
    run.at(0.20).on_round_commit(1)
    run.recover(0.30, 0, 0, {})
    run.recover(0.31, 1, 0, {})
    run.at(0.40).on_send(0, 0, 1, 0)
    run.at(0.41).on_snapshot(0, 2, 0, {1: 1})
    run.at(0.42).on_snapshot(1, 2, 0, {})
    run.at(0.50).on_round_commit(2)
    assert [(v.time, v.detail) for v in run.oracle.violations] == [(0.50, (
        "round 2's cut holds node 0's first 1 sends to node 1, but only 0 of them delivered"))]


@pytest.mark.parametrize("rolls_back", [True, False])
def test_live_peer_that_rolls_back_below_pre_rollback_traffic_leaves_no_finding(rolls_back):
    """Coordinated rollback reaches live processes one at a time.  Node
    0 crashes and rolls back to round 1; node 1, still live in the old
    execution, delivers node 0's rolled-back message -- an orphan while
    it lasts, pending -- and then rolls back to round 1 itself, below
    that delivery: no finding.  Had it not rolled back, the orphan
    would be real, and the run-end call reports it."""
    run = Run(n=2)
    run.oracle._transient = True  # as System sets it for coordinated
    one_message_each_way(run)
    run.at(0.20).on_snapshot(0, 1, 1, {1: 1})
    run.at(0.21).on_snapshot(1, 1, 1, {0: 1})
    run.at(0.30).on_round_commit(1)
    run.at(0.31).on_send(1, 1, 0, 1)
    run.at(0.32).on_deliver(0, 1, (1, 1), digest("n0 after"))
    run.at(0.33).on_send(0, 1, 1, 2)
    run.crash(0.40, 0)
    run.recover(0.50, 0, 1, {1: 1})
    run.at(0.55).on_deliver(1, 1, (0, 1), digest("n1 after"))
    assert run.oracle.consistent
    if rolls_back:
        run.at(0.60).on_rollback(1, 1, {0: 1})
    run.oracle.check_safety({0: [(1, 0)], 1: [(0, 0)] + ([] if rolls_back else [(0, 1)])})
    found = [(v.kind, v.node, v.time) for v in run.oracle.violations]
    # the delivery itself, and the run-end walk to the lost slot (0, 1)
    assert found == ([] if rolls_back else [("orphan", 1, 0.55)] * 2)


# ----------------------------------------------------------------------
# the rule in real runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("replica", [0, 1])
def test_recovery_orphan_judgement_runs_before_the_graph_records_the_next_delivery(
    monkeypatch, replica
):
    """Churn ``fbl/blocking`` seed 8: node 3's recovery at t=2.15828
    rolls back its delivery at rsn 0, and the recovery is judged at the
    next call into the oracle -- node 3 delivering rsn 0 again -- before
    that delivery is recorded: the slot is still lost, and the live
    frontiers are walked.  Judged after the record, the slot would look
    refilled and nothing would be walked."""
    judged = []
    walk = ConsistencyOracle._orphaned

    def watched(self, frontiers, lost, time, why):
        judged.append((round(time, 5), lost))
        return walk(self, frontiers, lost, time, why)

    monkeypatch.setattr(ConsistencyOracle, "_orphaned", watched)
    config = chaos_config("fbl", "blocking", 2, 8, profile="churn", replica=replica)
    assert build_system(config).run().consistent
    assert judged == [(2.15828, [(3, 0)])]


@pytest.mark.parametrize("protocol,recovery,budget,seed", [
    ("fbl", "blocking", 2, 116), ("optimistic", "optimistic", 1, 89),
])
def test_perturbed_churn_orphans_are_judged_with_the_sanitizer_off(
    protocol, recovery, budget, seed
):
    """The two perturbed churn labels only the sanitizer used to see:
    with the sanitizer off, the oracle's orphan rule calls both runs
    inconsistent.  Both are real orphans, protocol bugs listed in
    docs/FAULTS.md §6; a fix turns its case here into a consistent run."""
    config = chaos_config(protocol, recovery, budget, seed, profile="churn", replica=1)
    assert not config.sanitize
    violations = build_system(config).run().oracle_violations
    assert violations and {v.kind for v in violations} == {"orphan"}
    assert {v.node for v in violations} == {3}
