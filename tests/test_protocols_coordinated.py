"""Tests for coordinated checkpointing and its global rollback."""

import pytest

from repro import build_system, crash_at
from repro.storage.checkpoint import decode_image

from helpers import small_config


def coordinated_config(n=5, snapshot_every=8, hops=40, **kw):
    return small_config(
        n=n, protocol="coordinated", recovery="coordinated",
        protocol_params={"snapshot_every": snapshot_every},
        workload="uniform", hops=hops, **kw,
    )


def run_system(config):
    system = build_system(config)
    result = system.run()
    return system, result


class TestSnapshotRounds:
    def test_rounds_commit_failure_free(self):
        system, result = run_system(coordinated_config())
        initiator = system.nodes[0].protocol
        assert initiator.rounds_committed >= 1
        for node in system.nodes:
            assert node.protocol.committed_round >= 1

    def test_round_zero_exists_for_everyone(self):
        system, result = run_system(coordinated_config())
        for node in system.nodes:
            assert node.storage.peek("round:0") is not None

    def test_snapshot_captures_consistent_cut(self):
        """At snap time channels are empty: total sent == total received
        in every snapshot record."""
        system, result = run_system(coordinated_config())
        rounds = range(1, system.nodes[0].protocol.committed_round + 1)
        for round_id in rounds:
            images = [n.storage.peek(f"round:{round_id}") for n in system.nodes]
            if any(image is None for image in images):
                continue
            records = [decode_image(image) for image in images]
            sent = sum(sum(r["sent_count"].values()) for r in records)
            received = sum(sum(r["recv_count"].values()) for r in records)
            assert sent == received, f"round {round_id} cut is inconsistent"

    def test_holds_are_bounded(self):
        system, result = run_system(coordinated_config())
        for node in system.nodes:
            assert not node.protocol._holding


class TestRollback:
    def test_crash_rolls_everyone_back(self):
        config = coordinated_config(crashes=[crash_at(node=2, time=0.05)])
        system, result = run_system(config)
        assert len(result.recovery_durations()) == 1
        # rollback loses work at every process, not just the crashed one
        assert system.metrics.rolled_back_deliveries > 0

    def test_live_processes_blocked_during_rollback(self):
        """The intrusion: every live process stalls through a full
        stable-storage restore."""
        config = coordinated_config(crashes=[crash_at(node=2, time=0.05)])
        system, result = run_system(config)
        blocked = [
            result.blocked_time_by_node.get(n.node_id, 0.0)
            for n in system.nodes if n.node_id != 2
        ]
        assert all(b > 0 for b in blocked)

    def test_epochs_advance_on_rollback(self):
        config = coordinated_config(crashes=[crash_at(node=2, time=0.05)])
        system, result = run_system(config)
        epochs = {n.protocol.epoch for n in system.nodes}
        assert epochs == {1}

    def test_execution_resumes_after_rollback(self):
        config = coordinated_config(crashes=[crash_at(node=2, time=0.05)])
        system, result = run_system(config)
        # progress was re-made after the rollback and rounds resumed
        assert result.final_progress > 0
        assert all(n.is_live for n in system.nodes)

    def test_rollback_targets_common_committed_round(self):
        config = coordinated_config(crashes=[crash_at(node=2, time=0.3)])
        system, result = run_system(config)
        committed = {n.protocol.committed_round for n in system.nodes}
        assert len(committed) == 1

    def test_second_crash_rolls_back_again(self):
        config = coordinated_config(
            crashes=[crash_at(node=2, time=0.05), crash_at(node=3, time=3.0)],
            hops=60,
        )
        system, result = run_system(config)
        assert len(result.recovery_durations()) == 2
        assert all(n.is_live for n in system.nodes)
        assert {n.protocol.epoch for n in system.nodes} == {2}


class TestParameters:
    def test_snapshot_every_validated(self):
        from repro.protocols.coordinated import CoordinatedCheckpointing

        with pytest.raises(ValueError):
            CoordinatedCheckpointing(snapshot_every=0)

    def test_no_message_logging_overhead(self):
        system, result = run_system(coordinated_config())
        assert result.extra["piggyback_determinants"] == 0
        for node in system.nodes:
            assert node.storage.log_len(f"msglog:{node.node_id}") == 0
