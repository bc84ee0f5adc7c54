"""Tests for system assembly and run control."""

import pytest

from repro import SystemConfig, build_system, crash_at

from helpers import small_config


def test_double_start_rejected():
    system = build_system(small_config(n=4, hops=5))
    system.start()
    with pytest.raises(RuntimeError):
        system.start()
    system.sim.run()


def test_run_starts_automatically():
    system = build_system(small_config(n=4, hops=5))
    result = system.run()
    assert result.total_deliveries > 0


def test_run_until_horizon_stops_early():
    config = small_config(n=4, hops=40, crashes=[crash_at(2, 0.02)],
                          run_until=0.1)
    system = build_system(config)
    result = system.run()
    assert result.end_time == pytest.approx(0.1)
    # recovery has not completed by the horizon...
    assert not system.nodes[2].is_live
    # ...so the safety check is deferred, and that is reported
    assert result.extra["safety_checked"] is False


def test_max_events_livelock_guard():
    config = small_config(n=4, hops=10, max_events=50)
    system = build_system(config)
    with pytest.raises(RuntimeError):
        system.run()


def test_topology_includes_sequencer():
    system = build_system(small_config(n=4, hops=5))
    assert system.topology.nodes == [0, 1, 2, 3, 4]
    assert system.sequencer.node_id == 4
    system.run()


def test_crash_node_is_idempotent():
    system = build_system(small_config(n=4, hops=5))
    system.start()
    system.crash_node(2)
    count = system.nodes[2].crash_count
    system.crash_node(2)
    assert system.nodes[2].crash_count == count
    system.sim.run()


def test_coordinated_run_is_judged_by_the_oracle():
    """Coordinated checkpointing gets the run's one oracle: a run that
    crashes and rolls every process back records its sends and
    deliveries, and is consistent."""
    system = build_system(small_config(
        protocol="coordinated", recovery="coordinated",
        protocol_params={"snapshot_every": 8}, hops=40,
        crashes=[crash_at(node=2, time=0.05)],
    ))
    result = system.run()
    assert system.metrics.rolled_back_deliveries > 0
    assert any(system.oracle.graph.contexts.values())
    assert system.oracle.deliveries_recorded() > 0
    assert result.consistent, [str(v) for v in result.oracle_violations]


def test_result_extra_contains_protocol_and_recovery_stats():
    system = build_system(small_config(n=4, hops=10))
    result = system.run()
    assert set(result.extra["protocol_stats"]) == {0, 1, 2, 3}
    assert set(result.extra["recovery_stats"]) == {0, 1, 2, 3}
    assert result.extra["events_processed"] > 0


def test_node_accessor():
    system = build_system(small_config(n=4, hops=5))
    assert system.node(2) is system.nodes[2]
    system.run()


def test_storage_ops_reported_per_node():
    system = build_system(small_config(
        n=4, protocol="pessimistic", recovery="local", hops=10,
    ))
    result = system.run()
    for node_id, ops in result.storage_ops.items():
        assert ops["writes"] >= 0
        assert "sync_stall" in ops
