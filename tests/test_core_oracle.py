"""Unit tests for the consistency oracle."""

from hashlib import sha256

from repro.core.oracle import ConsistencyOracle, NullOracle, OracleViolation


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


def test_null_oracle_observes_nothing():
    oracle = NullOracle()
    oracle.on_send(0, 0, 1, 0)
    oracle.on_deliver(1, 0, (0, 99), digest("x"))
    oracle.on_deliver(1, 0, (5, 5), digest("y"))  # would be a violation normally
    oracle.on_rollback(1, 0)
    oracle.check_safety({1: [(9, 9)]})
    assert oracle.consistent
    assert oracle.deliveries_recorded() == 0
