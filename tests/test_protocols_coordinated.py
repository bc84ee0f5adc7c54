"""Tests for coordinated checkpointing and its global rollback."""

import re
from dataclasses import replace

import pytest

from repro import build_system, crash_at
from repro.protocols.coordinated import CoordinatedCheckpointing
from repro.storage.checkpoint import decode_image

from helpers import small_config
from test_chaos import chaos_config


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

    def test_early_release_mutant_is_caught_by_the_oracle_at_the_commit(self, monkeypatch):
        """The race the module docstring describes, put back: a process
        releases its held sends right after its local snapshot, not at
        the commit.  In chaos trial ``coordinated/coordinated`` seed 1
        (canonical order, no crash) loss makes the transport retransmit,
        and node 1's first post-snapshot message to node 2 overtakes
        node 2's ``cl_snap``: round 1's cut holds a delivery whose send
        is outside its sender's cut.  With the sanitizer off this run
        used to pass; now the oracle flags it at the commit, with the
        commit's time and the span chain open on the receiver then."""
        config = replace(chaos_config("coordinated", "coordinated", 1, 1), sanitize=False)
        assert build_system(config).run().consistent
        snapshot = CoordinatedCheckpointing._take_round_snapshot

        def release_early(self, round_id, report_to):
            snapshot(self, round_id, report_to)
            self._release_hold()

        monkeypatch.setattr(CoordinatedCheckpointing, "_take_round_snapshot", release_early)
        system = build_system(config)
        commits = {}

        def at_commit(event):
            chains = system.oracle.chains
            commits[event.details["round"]] = (
                event.time, {node: tuple(chains.chain(node)) for node in range(config.n)})

        system.trace.subscribe(at_commit, "snapshot.commit")
        found = system.run().oracle_violations
        assert found and {v.kind for v in found} == {"inconsistent-cut"}
        first = found[0]
        assert (first.node, first.detail) == (2, (
            "round 1's cut holds the delivery of (1, ssn 2) at rsn 8, but node 1's "
            "cut holds only its first 2 sends to node 2"))
        time, chains = commits[int(re.match(r"round (\d+)", first.detail).group(1))]
        assert first.time == time
        assert first.span_chain == chains[2]
        assert [link["kind"] for link in first.span_chain] == ["transport.retransmit_epoch"]


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

    def test_rollback_keeps_outputs_released_before_the_crash(self):
        """Round 1 commits at 0.128 s and every process releases outputs
        under it.  Node 3 crashes at 0.141 s, before its committed-marker
        write lands, and restarts believing round 0.  The rollback goes
        to round 1, the newest round any process reports: round 0 would
        undo the released outputs, and the oracle's output check would
        flag them."""
        config = small_config(
            protocol="coordinated", recovery="coordinated",
            protocol_params={"snapshot_every": 8}, workload="uniform",
            workload_params={"hops": 20, "fanout": 2, "output_every": 3},
            crashes=[crash_at(node=3, time=0.140625)], seed=0,
        )
        system = build_system(config)
        decisions = []
        system.trace.subscribe(
            lambda event: decisions.append(
                (event.details["round"], system.nodes[3].protocol.committed_round)),
            "recovery.rollback_decision")
        result = system.run()
        assert decisions == [(1, 0)]
        assert result.outputs_committed > 0
        assert result.consistent, [str(v) for v in result.oracle_violations]

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
