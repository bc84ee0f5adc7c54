"""Tests for the paper's new non-blocking recovery algorithm."""

import pytest

from repro import build_system, crash_at, crash_on

from helpers import small_config


def run_system(config):
    system = build_system(config)
    result = system.run()
    return system, result


def single_crash(n=6, hops=25, **kw):
    return small_config(
        n=n, recovery="nonblocking", hops=hops,
        crashes=[crash_at(node=2, time=0.02)], **kw,
    )


class TestSingleFailure:
    def test_recovers_consistently(self):
        system, result = run_system(single_crash())
        assert result.consistent
        assert len(result.recovery_durations()) == 1

    def test_live_processes_never_block(self):
        """The headline property: zero blocked time at live processes."""
        system, result = run_system(single_crash())
        assert result.total_blocked_time == 0.0
        assert result.blocked_time_by_node == {}

    def test_live_processes_do_no_sync_storage_writes(self):
        system, result = run_system(single_crash())
        for node in system.nodes:
            if node.node_id != 2:
                assert result.sync_stall_time(node.node_id) == 0.0

    def test_recovery_dominated_by_detection_and_restore(self):
        config = single_crash()
        system, result = run_system(config)
        episode = result.episodes[0]
        assert episode.detection_duration == pytest.approx(config.detection_delay)
        assert episode.restore_duration > 0
        overhead = episode.total_duration - episode.detection_duration - episode.restore_duration
        # the algorithm itself costs milliseconds (the paper's claim)
        assert overhead < 0.1

    def test_crashed_node_becomes_leader(self):
        system, result = run_system(single_crash())
        assert result.episodes[0].was_leader

    def test_incarnation_incremented(self):
        system, result = run_system(single_crash())
        assert system.nodes[2].incarnation == 1

    def test_live_nodes_learn_incvector(self):
        system, result = run_system(single_crash())
        for node in system.nodes:
            if node.node_id != 2:
                assert node.incvector.get(2) == 1

    def test_algorithm_message_pattern(self):
        """ord round-trip + depinfo round + distribute/complete traffic."""
        config = single_crash(n=6)
        system, result = run_system(config)
        trace = system.trace
        assert trace.count("sequencer", "ord_granted") == 1
        assert trace.count("recovery", "depinfo_request_received") == 5
        assert trace.count("recovery", "gather_start") == 1

    def test_app_traffic_continues_during_recovery(self):
        """Live processes keep delivering while node 2 recovers.

        Uses long-lived ping-pong pairs: the (2, 3) pair stalls with the
        crash, but (0, 1) and (4, 5) must keep exchanging messages
        through the whole detection window -- the non-blocking property.
        """
        # f=1 so determinants stabilize within a pair (with f=2 a
        # two-party workload can never reach f+1 hosts and piggybacks
        # grow without bound -- a real FBL phenomenon, but slow to test)
        config = single_crash(
            workload="ping_pong", workload_params={"hops": 4_000}, hops=0, f=1
        )
        system = build_system(config)
        system.start()
        crash_time = 0.02
        system.sim.run(until=crash_time + config.detection_delay / 2)
        mid = {n.node_id: n.app.delivered_count for n in system.nodes}
        system.sim.run(until=crash_time + config.detection_delay)
        later = {n.node_id: n.app.delivered_count for n in system.nodes}
        progressed = [n for n in mid if n != 2 and later[n] > mid[n]]
        assert progressed, "live processes made no progress during the outage"
        system.sim.run()


class TestFailureDuringRecovery:
    def test_crash_before_reply_invalidates_only_that_reply(self):
        """A live process dying before its depinfo reply no longer voids
        the round: only the reply it owed is invalidated, and the round
        resumes once the failed process rejoins R (asking again wherever
        it asked before the failure was detected)."""
        config = small_config(
            n=6, recovery="nonblocking", hops=25,
            crashes=[
                crash_at(node=2, time=0.02),
                crash_on(4, "net", "deliver", match_node=4,
                         match_details={"mtype": "depinfo_request"},
                         immediate=True),
            ],
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 2
        assert sum(e.gather_restarts for e in result.episodes) == 0
        assert sum(e.reply_invalidations for e in result.episodes) >= 1
        assert result.total_blocked_time == 0.0

    def test_crash_after_reply_needs_no_restart(self):
        config = small_config(
            n=6, recovery="nonblocking", hops=25,
            crashes=[
                crash_at(node=2, time=0.02),
                crash_on(4, "recovery", "depinfo_request_received", match_node=4),
            ],
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 2

    def test_leader_failure_promotes_next_ordinal(self):
        config = small_config(
            n=6, recovery="nonblocking", hops=25,
            crashes=[
                crash_at(node=2, time=0.02),
                crash_at(node=4, time=0.03),
                crash_on(2, "recovery", "leader_elected", match_node=2,
                         immediate=True),
            ],
        )
        system, result = run_system(config)
        assert result.consistent
        # three crash episodes: node 2's first ends in its re-crash (never
        # completes); the other two recover fully
        assert len(result.episodes) == 3
        assert len(result.recovery_durations()) == 2
        final_by_node = {e.node: e for e in result.episodes}
        assert final_by_node[2].complete and final_by_node[4].complete
        leaders = [e for e in result.episodes if e.was_leader]
        assert len(leaders) >= 2

    def test_three_concurrent_failures_with_f_3(self):
        config = small_config(
            n=8, f=3, recovery="nonblocking", hops=30,
            crashes=[
                crash_at(node=1, time=0.02),
                crash_at(node=3, time=0.025),
                crash_at(node=5, time=0.03),
            ],
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 3
        assert result.total_blocked_time == 0.0

    def test_sequential_failures_of_same_node(self):
        config = small_config(
            n=6, recovery="nonblocking", hops=40,
            crashes=[crash_at(node=2, time=0.02), crash_at(node=2, time=5.0)],
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 2
        assert system.nodes[2].incarnation == 2


class TestStateMachineDetails:
    def test_manager_idle_after_completion(self):
        system, result = run_system(single_crash())
        manager = system.nodes[2].recovery
        assert manager.role == "idle"
        assert manager.ord is None

    def test_sequencer_active_empty_after_completion(self):
        system, result = run_system(single_crash())
        assert system.sequencer.active == {}

    def test_stale_messages_rejected_after_incvector_update(self):
        system, result = run_system(single_crash())
        # any reject_stale events are fine; what matters is none were
        # *delivered*: the oracle already checked consistency, and every
        # delivered message obeys incvector
        for node in system.nodes:
            for event in system.trace.select("node", node.node_id, "reject_stale"):
                assert event.details["incarnation"] < node.incvector[event.details["src"]]


class TestMemberFinishesBeforeTheLeaderAsks:
    """A member of R that completes its own recovery after the new
    leader's join announcement but before the leader's ``inc_request``
    reaches it never answers that request (it is live again).  Its
    ``recovery_complete`` is the leader's only signal, and a leader in
    the incarnation phase used to ignore it: the round waited forever
    for an ``inc_reply`` nobody owed.  Found by the chaos harness once it
    drew checkpoint cadences (adaptive/nonblocking, seed 20: the first
    victim's replay ends in the same instant the second victim's
    ``inc_request`` arrives)."""

    def test_chaos_seed_20_leader_stops_waiting_for_a_finished_member(self):
        import dataclasses

        from test_chaos import chaos_config

        config = dataclasses.replace(
            chaos_config("adaptive", "nonblocking", 2, 20), checkpoint_every=9
        )
        system, result = run_system(config)
        # the scenario itself: node 3 starts gathering with node 2 in R,
        # and node 2 finishes before node 3's round gets anywhere
        gather = system.trace.first("recovery", 3, "gather_start")
        assert gather.details["members"] == [2]
        assert gather.time < system.trace.first("recovery", 2, "complete").time
        assert result.consistent
        assert all(e.complete for e in result.episodes)
        assert all(node.is_live for node in system.nodes)

