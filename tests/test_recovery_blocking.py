"""Tests for the blocking (message-optimal) recovery baseline."""

import dataclasses

import pytest

from repro import build_system, crash_at, crash_on

from helpers import small_config


def run_system(config):
    system = build_system(config)
    result = system.run()
    return system, result


def single_crash(n=6, **kw):
    return small_config(
        n=n, recovery="blocking", hops=25,
        crashes=[crash_at(node=2, time=0.02)], **kw,
    )


class TestSingleFailure:
    def test_recovers_consistently(self):
        system, result = run_system(single_crash())
        assert result.consistent
        assert len(result.recovery_durations()) == 1

    def test_every_live_process_blocks(self):
        """The paper's E1: each live process blocks (tens of ms) while
        the new algorithm would block none."""
        system, result = run_system(single_crash())
        for node in system.nodes:
            if node.node_id != 2:
                assert result.blocked_time_by_node.get(node.node_id, 0.0) > 0

    def test_blocked_time_is_tens_of_milliseconds(self):
        system, result = run_system(single_crash())
        mean = result.mean_blocked_time(exclude=[2])
        assert 0.005 < mean < 0.5

    def test_live_processes_write_replies_to_stable_storage(self):
        """The sync-write requirement the new algorithm removes."""
        system, result = run_system(single_crash())
        for node in system.nodes:
            if node.node_id != 2:
                assert result.sync_stall_time(node.node_id) > 0
                assert node.recovery.sync_reply_writes == 1

    def test_fewer_recovery_messages_than_nonblocking(self):
        """Message-optimality: this is what the baseline is optimized for."""
        blocking = run_system(single_crash(seed=11))[1]
        nonblocking = run_system(
            small_config(n=6, recovery="nonblocking", hops=25, seed=11,
                         crashes=[crash_at(node=2, time=0.02)])
        )[1]
        assert blocking.recovery_messages() < nonblocking.recovery_messages()

    def test_recovery_duration_close_to_nonblocking(self):
        """Both algorithms recover the failed process in about the same
        time (detection + restore dominate)."""
        blocking = run_system(single_crash(seed=5))[1]
        nonblocking = run_system(
            small_config(n=6, recovery="nonblocking", hops=25, seed=5,
                         crashes=[crash_at(node=2, time=0.02)])
        )[1]
        b = blocking.recovery_durations()[0]
        nb = nonblocking.recovery_durations()[0]
        assert abs(b - nb) / max(b, nb) < 0.1

    def test_unblocks_after_completion(self):
        system, result = run_system(single_crash())
        for node in system.nodes:
            assert not node.blocked

    def test_queued_messages_delivered_after_unblock(self):
        """Blocking must not lose messages, only delay them."""
        system, result = run_system(single_crash())
        assert result.consistent
        # progress resumed post-recovery: all chains eventually quiesced
        assert result.final_progress > 0


class TestFailureDuringRecovery:
    def test_second_crash_extends_blocking(self):
        """E2: live processes stay blocked across the second failure's
        detection and restore -- seconds, not milliseconds."""
        config = small_config(
            n=6, recovery="blocking", hops=25,
            crashes=[
                crash_at(node=2, time=0.02),
                crash_on(4, "net", "deliver", match_node=4,
                         match_details={"mtype": "recovery_request"},
                         immediate=True),
            ],
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 2
        # blocked time now spans detection (0.5 s) + restore of node 4
        for node in system.nodes:
            if node.node_id not in (2, 4):
                assert result.blocked_time_by_node[node.node_id] > config.detection_delay

    def test_proceeds_without_reply_from_crashed_peer(self):
        config = small_config(
            n=6, recovery="blocking", hops=25,
            crashes=[
                crash_at(node=2, time=0.02),
                crash_on(4, "net", "deliver", match_node=4,
                         match_details={"mtype": "recovery_request"},
                         immediate=True),
            ],
        )
        system, result = run_system(config)
        episodes = {e.node: e for e in result.episodes}
        assert episodes[2].complete
        assert episodes[4].complete

    def test_two_independent_crashes(self):
        config = small_config(
            n=6, recovery="blocking", hops=30,
            crashes=[crash_at(node=1, time=0.02), crash_at(node=3, time=0.03)],
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 2


class TestGatherRaces:
    """Races between the gather and determinant copies still in flight.

    FBL counts a destination toward f+1 replication at *send* time, so a
    recovery gather can run while the only surviving copy of a needed
    determinant sits in the network -- or, worse, in a blocked peer's
    undelivered-message queue.  Found by the chaos harness
    (fbl/blocking, seed 82): a partition delayed a piggyback carrier for
    half a second; its two other believed hosts were exactly the two
    crashed nodes; the carrier reached the last live host while that
    host was blocked, and the host's reply -- composed from delivered
    state only -- omitted the determinant the replay needed.
    """

    def test_chaos_seed_82_partitioned_carrier_recovers(self):
        from test_chaos import chaos_config

        # the scenario predates the harness drawing a checkpoint cadence
        config = dataclasses.replace(
            chaos_config("fbl", "blocking", 2, 82), checkpoint_every=0
        )
        system, result = run_system(config)
        assert result.consistent
        assert all(e.complete for e in result.episodes)
        assert all(node.is_live for node in system.nodes)

    def test_blocked_queue_piggybacks_reach_the_reply(self):
        """Determinants queued behind a block must appear in the depinfo
        reply (on the reliable transport, where carriers can be late)."""
        from repro.causality.determinant import Determinant
        from repro.net.network import Message, MessageKind
        from repro.storage.volatile import host_mask

        system = build_system(small_config(recovery="blocking"))
        node = system.nodes[0]
        node.start()
        node.block()
        carrier = Message(
            src=1, dst=0, kind=MessageKind.APPLICATION, mtype="app",
            payload={"data": {}}, ssn=0,
            piggyback=[((3, 5), Determinant(1, 0, 3, 5), host_mask((1, 3)))],
        )
        node.receive(carrier)
        assert (1, 0, 3, 5) not in node.protocol.local_depinfo_wire()[0]
        node.protocol.absorb_piggybacks(node.blocked_app_messages())
        dets, masks = node.protocol.local_depinfo_wire()
        assert (1, 0, 3, 5) in dets
        # the reply names the hosts the carrier counted, and this one
        assert masks[dets.index((1, 0, 3, 5))] == host_mask((0, 1, 3))

    def test_replay_gap_detection(self):
        system = build_system(small_config(recovery="blocking"))
        rec = system.nodes[0].recovery
        me = 0
        assert rec._replay_gap([]) == []
        assert rec._replay_gap([(1, 0, me, 0), (1, 1, me, 1)]) == []
        assert rec._replay_gap([(1, 0, me, 0), (1, 1, me, 2)]) == [1]
        # other receivers' determinants are not this replay's problem
        assert rec._replay_gap([(0, 0, 4, 7)]) == []

    def test_gather_retry_gathers_again(self, monkeypatch):
        """A replay gap in the merged replies (a counted determinant copy
        still in flight) makes the recovering node gather again after
        ``GATHER_RETRY_DELAY`` instead of replaying with a known gap."""
        from repro.recovery.blocking import BlockingRecovery

        gaps = [[0]]  # the first gather reports receipt order 0 missing
        real_gap = BlockingRecovery._replay_gap
        monkeypatch.setattr(
            BlockingRecovery, "_replay_gap",
            lambda self, wire: gaps.pop() if gaps else real_gap(self, wire),
        )
        system, result = run_system(single_crash())
        trace = system.trace
        assert trace.count("recovery", "gather_retry") == 1
        broadcasts = trace.select("recovery", node=2, action="recovery_request_broadcast")
        retry = trace.first("recovery", node=2, action="gather_retry")
        assert len(broadcasts) == 2
        assert broadcasts[1].time == pytest.approx(
            retry.time + BlockingRecovery.GATHER_RETRY_DELAY)
        assert result.consistent
        assert [e.complete for e in result.episodes] == [True]
        # a retry scheduled by an incarnation that is no longer recovering
        # does nothing
        system.nodes[2].recovery._retry_gather(system.nodes[2].incarnation)
        assert trace.count("recovery", "recovery_request_broadcast") == 2
