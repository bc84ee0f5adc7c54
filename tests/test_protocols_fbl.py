"""Tests for the FBL protocol family's failure-free mechanics."""

import pytest

from repro import SystemConfig, build_system
from repro.causality.determinant import Determinant
from repro.protocols.fbl import STABLE_HOST, FamilyBasedLogging

from helpers import small_config


def run_system(config):
    system = build_system(config)
    result = system.run()
    return system, result


def test_f_must_be_positive():
    with pytest.raises(ValueError):
        FamilyBasedLogging(f=0)


def test_replication_target_is_f_plus_one():
    assert FamilyBasedLogging(f=3).replication_target == 4


def test_sender_logs_every_app_message():
    system, result = run_system(small_config(n=4, hops=10))
    for node in system.nodes:
        # every app message this node sent is in its send log
        sent = [
            e for e in system.trace.select(category="net", node=node.node_id, action="send")
            if e.details.get("mtype") == "app"
        ]
        assert len(node.protocol.send_log) == len(sent)


def test_receiver_records_determinant_per_delivery():
    system, result = run_system(small_config(n=4, hops=10))
    for node in system.nodes:
        own = node.protocol.det_log.for_receiver(node.node_id)
        assert len(own) == node.app.delivered_count
        assert set(own) == set(range(node.app.delivered_count))


def test_propagation_stops_at_f_plus_one():
    """The defining FBL property: once a determinant is known to be at
    f + 1 hosts, it is never piggybacked again."""
    config = small_config(n=6, f=2, hops=30)
    system, result = run_system(config)
    for node in system.nodes:
        protocol = node.protocol
        for det in protocol.det_log.determinants():
            hosts = protocol.det_log.logged_at(det)
            if len(hosts) >= 3 or STABLE_HOST in hosts:
                assert protocol._det_stable(det)
                assert det not in protocol.det_log.unstable(3)


def test_visible_determinants_replicated_at_claimed_hosts():
    """The logged_at accounting must be sound: every host a determinant
    claims to be logged at actually stores it (no failures in this run,
    so optimistic accounting equals ground truth)."""
    config = small_config(n=6, f=1, hops=30)
    system, result = run_system(config)
    by_id = {node.node_id: node for node in system.nodes}
    for node in system.nodes:
        for det in node.protocol.det_log.determinants():
            for host in node.protocol.det_log.logged_at(det):
                if host == STABLE_HOST:
                    continue
                assert det in by_id[host].protocol.det_log, (
                    f"{det} claimed at host {host} which does not store it"
                )


def test_determinants_of_senders_reach_other_hosts():
    """A determinant whose receiver sent at least one later message must
    be stored at more than just the receiver (propagation happened)."""
    config = small_config(n=6, f=2, hops=30)
    system, result = run_system(config)
    for node in system.nodes:
        own = node.protocol.det_log.for_receiver(node.node_id)
        if not own or not len(node.protocol.send_log):
            continue
        earliest = own.get(0)
        if earliest is None:
            continue
        holders = sum(
            1 for other in system.nodes if earliest in other.protocol.det_log
        )
        assert holders >= 2


def test_checkpoint_captures_both_logs():
    system, result = run_system(small_config(n=4, hops=10))
    node = system.nodes[0]
    extra = node.protocol.checkpoint_extra()
    assert len(extra["send_log"]) == len(node.protocol.send_log)
    assert len(extra["det_log"]) == len(node.protocol.det_log.determinants())


def test_restore_rebuilds_logs_from_checkpoint():
    system, result = run_system(small_config(n=4, hops=10))
    node = system.nodes[0]
    fresh = FamilyBasedLogging(f=2)
    fresh.attach(node)
    fresh.on_restore(node.checkpoints.latest, node.protocol.checkpoint_extra())
    assert len(fresh.send_log) == len(node.protocol.send_log)
    assert len(fresh.det_log) == len(node.protocol.det_log)


def test_local_depinfo_wire_round_trips():
    system, result = run_system(small_config(n=4, hops=10))
    node = system.nodes[0]
    wire = node.protocol.local_depinfo_wire()
    parsed = [Determinant.from_tuple(tuple(i)) for i in wire]
    assert parsed == node.protocol.det_log.determinants()


def test_dedupe_rejects_duplicate_ssn():
    """A retransmitted/regenerated message must not be delivered twice."""
    system, result = run_system(small_config(n=4, hops=10))
    for node in system.nodes:
        history = node.app.delivery_history
        assert len(history) == len(set(history))


def test_failure_free_run_has_no_recovery_traffic():
    system, result = run_system(small_config(n=6, hops=20))
    assert result.recovery_messages() == 0
    assert result.consistent


def test_higher_f_piggybacks_more():
    low = run_system(small_config(n=6, f=1, hops=25, seed=3))[1]
    high = run_system(small_config(n=6, f=4, hops=25, seed=3))[1]
    assert high.extra["piggyback_determinants"] >= low.extra["piggyback_determinants"]


def _unstable_by_full_scan(protocol):
    """What ``stats()["unstable_determinants"]`` counted before it read
    the cache: sort the whole log, test every determinant."""
    return [det for det in protocol.det_log.determinants() if not protocol._det_stable(det)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "protocol,recovery,max_crashes",
    [
        ("fbl", "nonblocking", 2),
        ("fbl", "blocking", 2),
        ("sender_based", "nonblocking", 1),
        ("manetho", "nonblocking", 2),
        ("adaptive", "nonblocking", 2),
    ],
)
def test_unstable_cache_equals_full_scan_under_chaos(protocol, recovery, max_crashes, seed):
    """The O(1) end-of-run count is the cache's size, so the cache must
    track the log exactly through crash, checkpoint GC, depinfo load and
    restore -- on every FBL-family stack of the chaos matrix."""
    import dataclasses

    from test_chaos import chaos_config

    config = dataclasses.replace(
        chaos_config(protocol, recovery, max_crashes, seed), checkpoint_every=7
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent
    for node in system.nodes:
        scanned = _unstable_by_full_scan(node.protocol)
        assert sorted(node.protocol._unstable.values()) == scanned
        assert node.protocol.stats()["unstable_determinants"] == len(scanned)
