"""Recovery under churn: epochs, leader handoff, and stale replies.

The paper's recovery algorithm assumed the leader survives its own
gather.  These tests pin the churn-hardening on top of it:

* a leader crash mid-gather triggers a view-change-style handoff -- the
  successor adopts the persisted round state from the sequencer and
  resumes, instead of restarting from scratch;
* a live process failing mid-round makes every request sent before its
  failure was detected stale, answered or not, and exactly those are
  sent again when it is absorbed (a reply to a superseded request is
  dropped) -- through a handoff too, and never for a re-crashed member
  of R; the churn trials that distributed stale replies recover
  consistently, and with the marking removed the oracle alone finds
  the orphans;
* cascading failures (k >= 3 overlapping crashes) and partitions healing
  mid-gather still converge for every recovery manager;
* the ``recovery-epoch`` sanitizer invariant catches an epoch-reuse
  mutant, both end-to-end and on a hand-fed trace.
"""

import pytest

from repro import build_system, crash_at, crash_on
from repro.core.config import FaultConfig
from repro.procs.failure import link_faults_at

from helpers import small_config
from test_chaos import chaos_config, check_invariants
from test_sanitizer import harness


def run_system(config):
    system = build_system(config)
    result = system.run()
    return system, result


def leader_crash_mid_gather():
    """Node 2 leads, accepts one depinfo reply, then dies; node 4 is
    also recovering and must take over the round."""
    return small_config(
        n=6, hops=25,
        crashes=[
            crash_at(node=2, time=0.02),
            crash_at(node=4, time=0.03),
            crash_on(2, "recovery", "depinfo_reply_accepted", match_node=2,
                     immediate=True),
        ],
    )


class TestLeaderHandoff:
    def test_leader_crash_mid_gather_hands_off_and_resumes(self):
        system, result = run_system(leader_crash_mid_gather())
        assert result.consistent
        final_by_node = {e.node: e for e in result.episodes}
        assert final_by_node[2].complete and final_by_node[4].complete
        assert sum(e.leader_handoffs for e in result.episodes) >= 1
        handoffs = system.trace.select("recovery", action="leader_handoff")
        assert handoffs, "no leader_handoff event traced"
        details = handoffs[0].details
        assert details["from_epoch"] < details["epoch"]
        assert len(details["adopted_replies"]) >= 1

    def test_handoff_does_not_rerequest_adopted_replies(self):
        """The resumed round only asks for what the dead leader had not
        yet collected."""
        system, result = run_system(leader_crash_mid_gather())
        handoff = system.trace.select("recovery", action="leader_handoff")[0]
        adopted = len(handoff.details["adopted_replies"])
        requests = system.trace.count("recovery", "depinfo_request_received")
        # a full restart would re-ask every member of both rounds; with
        # adoption the second round saves exactly the adopted replies
        assert adopted >= 1
        assert requests <= 2 * (6 - 1) - adopted


def events(system, action, **details):
    """The recovery events ``action`` whose details include ``details``."""
    return [
        e for e in system.trace.select("recovery", action=action)
        if all(e.details.get(k) == v for k, v in details.items())
    ]


def dies_on_depinfo_request(node):
    return crash_on(node, "net", "deliver", match_node=node,
                    match_details={"mtype": "depinfo_request"}, immediate=True)


def hold_node_5_to_leader(heal):
    """Lose all node 5 sends node 2 from t = 0.6 until ``heal``; the
    capped retransmission timer delivers it within 50 ms after."""
    return dict(
        transport="reliable",
        transport_params={"max_rto": 0.05, "max_retries": 60},
        injections=[link_faults_at(0.6, loss_prob=1.0, src=5, dst=2, duration=heal - 0.6)],
    )


class TestStaleReplies:
    """A reply to a request sent before a live process P's failure was
    detected may have been built before the deliveries P made last: the
    leader asks again for exactly those replies when P is absorbed."""

    def test_reply_built_before_the_failure_is_rerequested_however_late_it_arrives(self):
        # node 2 leads alone; node 5's reply is built before node 4
        # crashes and reaches node 2 after node 4's detection
        def held_reply_from_node_5(heal):
            return run_system(small_config(
                n=6, hops=25, crashes=[crash_at(node=2, time=0.02), crash_at(node=4, time=0.7)],
                **hold_node_5_to_leader(heal),
            ))

        system, result = held_reply_from_node_5(heal=1.25)
        assert result.consistent
        assert next(e for e in events(system, "depinfo_reply_sent") if e.node == 5).time < 0.7
        detected = events(system, "reply_invalidated", peer=4)[0].time
        absorbed = events(system, "member_absorbed", peer=4)[0]
        assert detected < events(system, "depinfo_reply_accepted", src=5)[0].time < absorbed.time
        assert absorbed.details["rerequested"] == [0, 1, 3, 5]
        # held past node 4's absorb, the reply to the superseded first
        # request is dropped: only the reply to the second one is taken
        system, result = held_reply_from_node_5(heal=1.5)
        assert result.consistent
        first_asks = len(events(system, "depinfo_phase")[0].details["live"])
        (accepted,) = events(system, "depinfo_reply_accepted", src=5)
        assert accepted.details["ask"] > first_asks
        assert sum(e.node == 5 for e in events(system, "depinfo_reply_sent")) == 2

    def test_reply_to_a_request_sent_after_the_detection_is_not_rerequested(self):
        # node 5 dies after replying; the replies node 4's absorb asks
        # for again are requested after node 5's detection, so they stand
        system, result = run_system(small_config(
            n=6, hops=25, f=3,
            crashes=[
                crash_at(node=2, time=0.02), dies_on_depinfo_request(4),
                crash_on(5, "recovery", "depinfo_reply_sent", match_node=5, delay=0.05),
            ],
        ))
        assert result.consistent
        assert events(system, "member_absorbed", peer=4)[0].details["rerequested"] == [0, 1, 3]
        assert events(system, "member_absorbed", peer=5)[0].details["rerequested"] == []

    @pytest.mark.parametrize("leader_dies_on", ["reply_invalidated", "member_absorbed"])
    def test_handoff_rerequests_adopted_replies_that_predate_the_failure(self, leader_dies_on):
        # node 2 leads and dies just after detecting node 3's failure
        # (node 4 adopts the round while node 3 still restores its
        # larger state, then absorbs it), or just after absorbing it,
        # before the replies it re-asked for arrive
        system, result = run_system(small_config(
            n=6, hops=25, f=3, state_bytes=1_000_000,
            crashes=[
                crash_at(node=2, time=0.02),
                crash_at(node=4, time=0.03),
                dies_on_depinfo_request(3),
                crash_on(2, "recovery", leader_dies_on, match_node=2, delay=0.0001),
            ],
        ))
        assert result.consistent
        detected = events(system, "reply_invalidated", peer=3)[0].time
        stale = {e.details["src"] for e in events(system, "depinfo_reply_accepted")
                 if e.time < detected}
        (handoff,) = events(system, "leader_handoff")
        asked_again = {p for e in events(system, "member_absorbed") if e.node == 4
                       for p in e.details["rerequested"]}
        assert stale and handoff.node == 4
        assert not stale & (set(handoff.details["adopted_replies"]) - asked_again)
        # the re-crashed old leader was a member of R: it stales nothing
        assert events(system, "member_absorbed", peer=2)[0].details["rerequested"] == []

    def test_member_recrash_rerequests_nothing(self):
        # node 4, a member of R, dies again in node 2's depinfo phase;
        # node 5's held reply keeps the round open past node 4's rejoin
        system, result = run_system(small_config(
            n=6, hops=25,
            crashes=[
                crash_at(node=2, time=0.02),
                crash_at(node=4, time=0.03),
                crash_on(4, "recovery", "depinfo_phase", match_node=2, delay=0.001),
            ],
            **hold_node_5_to_leader(1.6),
        ))
        assert result.consistent
        (recrash,) = events(system, "reply_invalidated", peer=4)
        assert recrash.details["reason"] == "member_recrash"
        assert events(system, "member_absorbed", peer=4)[0].details["rerequested"] == []
        # one request per live process, none repeated
        assert system.trace.count("recovery", "depinfo_request_received") == 4
        # nor does a re-crashed leader, absorbed by the successor that
        # adopted its round
        system, _ = run_system(leader_crash_mid_gather())
        assert events(system, "member_absorbed", peer=2)[0].details["rerequested"] == []

    @pytest.mark.parametrize("protocol,seed", [
        ("fbl", 10), ("fbl", 30), ("fbl", 56), ("adaptive", 32), ("adaptive", 67),
    ])
    def test_churn_trial_distributes_no_stale_reply(self, protocol, seed):
        """Churn trials in which an absorbed member's stale depinfo
        orphaned the survivors (docs/FAULTS.md §6); the oracle's orphan
        rule judges them with the sanitizer off."""
        config = chaos_config(protocol, "nonblocking", 2, seed, profile="churn")
        _, result = run_system(config)
        assert check_invariants(config, result) == []

    @pytest.mark.parametrize("protocol,seed", [
        ("fbl", 10), ("fbl", 30), ("fbl", 56), ("adaptive", 32),
    ])
    def test_stale_reply_mutant_orphans_the_survivors(self, monkeypatch, protocol, seed):
        """Seeded mutant: a live failure voids its reply but marks no
        request stale.  With the sanitizer off, the oracle alone calls
        the trial inconsistent, with an orphan finding."""
        from repro.recovery.nonblocking import NonblockingRecovery

        def mutant(self, peer):
            self._invalidate_reply(peer, "live_failure")

        monkeypatch.setattr(NonblockingRecovery, "_live_failure", mutant)
        config = chaos_config(protocol, "nonblocking", 2, seed, profile="churn")
        assert not config.sanitize
        _, result = run_system(config)
        assert not result.consistent
        assert "orphan" in {v.kind for v in result.oracle_violations}


CASCADE_MANAGERS = [
    ("fbl", "nonblocking"),
    ("fbl", "blocking"),
    ("manetho", "nonblocking"),
]


class TestCascadesAndPartitions:
    @pytest.mark.parametrize("protocol,recovery", CASCADE_MANAGERS,
                             ids=[f"{p}-{r}" for p, r in CASCADE_MANAGERS])
    def test_cascading_failures_recover(self, protocol, recovery):
        """k = 3 crashes, each landing inside the previous recovery."""
        config = small_config(
            n=8, protocol=protocol, recovery=recovery, f=3, hops=30,
            crashes=[
                crash_at(node=1, time=0.02),
                crash_at(node=3, time=0.25),
                crash_at(node=5, time=0.48),
            ],
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 3
        for node in system.nodes:
            assert node.is_live

    @pytest.mark.parametrize("recovery", ["nonblocking", "blocking"])
    def test_partition_healing_mid_gather(self, recovery):
        """The gather starts split from half the members and must finish
        once the partition heals (reliable transport carries the
        retries)."""
        config = small_config(
            n=6, recovery=recovery, hops=25,
            crashes=[crash_at(node=2, time=0.02)],
            transport="reliable",
            transport_params={"max_retries": 30},
            # node 6 is the sequencer; heal lands mid-gather (detection
            # delay is 0.5, so recovery starts around t=0.52)
            faults=FaultConfig(partitions=[([[0, 1, 2, 6], [3, 4, 5]], 0.7)]),
        )
        system, result = run_system(config)
        assert result.consistent
        assert len(result.recovery_durations()) == 1
        for node in system.nodes:
            assert node.is_live


class TestRecoveryEpochSanitizer:
    def test_frozen_epoch_mutant_caught_end_to_end(self, monkeypatch):
        """A manager that reuses the same epoch for every episode must be
        flagged by the recovery-epoch invariant."""
        from repro.recovery.base import RecoveryManager

        def frozen(self, epoch):
            self.epoch = 1  # mutant: epochs never advance
            self.trace("epoch_begin", epoch=1)

        monkeypatch.setattr(RecoveryManager, "begin_epoch", frozen)
        config = small_config(
            n=4, recovery="blocking", hops=20, sanitize=True,
            crashes=[crash_at(node=2, time=0.02), crash_at(node=2, time=4.0)],
        )
        system, result = run_system(config)
        report = result.extra["sanitizer"]
        assert not report["clean"]
        assert any(
            v["invariant"] == "recovery-epoch" for v in report["violations"]
        )

    def test_epoch_regression_caught_on_fed_trace(self):
        trace, sanitizer = harness()
        trace.record(0.10, "node", 2, "crash")
        trace.record(0.30, "node", 2, "restored",
                     checkpoint_id=1, delivered=0, incarnation=1)
        trace.record(0.30, "recovery", 2, "epoch_begin", epoch=1)
        trace.record(0.40, "node", 2, "recovered", delivered=0, incarnation=1)
        trace.record(0.50, "node", 2, "crash")
        trace.record(0.70, "node", 2, "restored",
                     checkpoint_id=1, delivered=0, incarnation=2)
        trace.record(0.70, "recovery", 2, "epoch_begin", epoch=1)
        assert not sanitizer.clean
        violation = sanitizer.violations[0]
        assert violation.invariant == "recovery-epoch"
        assert violation.node == 2
        assert violation.time == 0.70

    def test_action_outside_current_epoch_caught_on_fed_trace(self):
        trace, sanitizer = harness()
        trace.record(0.10, "node", 2, "crash")
        trace.record(0.30, "node", 2, "restored",
                     checkpoint_id=1, delivered=0, incarnation=1)
        trace.record(0.30, "recovery", 2, "epoch_begin", epoch=3)
        # the gather claims an epoch the node never entered
        trace.record(0.31, "recovery", 2, "gather_start", epoch=2)
        assert not sanitizer.clean
        assert sanitizer.violations[0].invariant == "recovery-epoch"
