"""Sanitizer tests: mutants are caught, clean runs stay clean and
byte-identical, and the schedule-perturbation differ agrees with itself.

Three layers:

* **Goldens** -- every protocol/recovery pairing from the integration
  matrix, with a crash, runs clean under ``sanitize=True`` and produces
  byte-identical digests, end time, and message counts to the same run
  without the monitor (the sanitizer only observes).
* **Seeded mutants** -- deliberately broken protocol behaviour (a
  dropped determinant flush, a delivery before its receipt-log write, an
  orphan delivery, an ack before the store, a block under non-blocking
  recovery) must each be caught at the violating event.
* **Differ** -- ``check_trial`` reports zero divergence on a correct
  protocol and surfaces per-replica health problems.
"""

import pytest

from repro import build_system, crash_at
from repro.core.config import SystemConfig
from repro.sanitizer.monitor import Sanitizer
from repro.sim.trace import TraceRecorder

from helpers import small_config
from test_chaos import COMBOS, chaos_config
from test_integration_matrix import PAIRINGS, make


# ----------------------------------------------------------------------
# goldens: clean runs stay clean, and the monitor is invisible
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol,recovery", PAIRINGS)
def test_sanitized_run_is_clean_and_byte_identical(protocol, recovery):
    crashes = [crash_at(node=2, time=0.03)]
    base = build_system(make(protocol, recovery, crashes=crashes)).run()
    sanitized = build_system(
        make(protocol, recovery, crashes=crashes, sanitize=True)
    ).run()

    report = sanitized.extra["sanitizer"]
    assert report["clean"], report["violations"][:3]
    assert report["events_seen"] > 0
    # observing must not perturb the run in any way
    assert sanitized.digests == base.digests
    assert sanitized.end_time == base.end_time
    assert sanitized.network.messages == base.network.messages


@pytest.mark.parametrize("protocol,recovery", [(p, r) for p, r, _ in COMBOS])
def test_subscribers_see_non_decreasing_time(protocol, recovery):
    """The sanitizer and the span-chain tracker assume trace time never
    runs backwards; the kernel pins event order, this pins the stream a
    full system hands its subscribers."""
    system = build_system(
        make(protocol, recovery, crashes=[crash_at(node=2, time=0.03)], sanitize=True)
    )
    times = []
    system.trace.subscribe(lambda event: times.append(event.time))
    result = system.run()
    assert result.consistent
    assert result.extra["sanitizer"]["clean"]
    assert times and times == sorted(times)


def test_sanitizer_counts_checks_by_invariant():
    # outputs force determinant pushes (flush-for-output) and exercise
    # the commit-order gate alongside the causal checks
    result = build_system(
        make(
            "fbl",
            "nonblocking",
            crashes=[crash_at(2, 0.03)],
            workload_params={"hops": 20, "fanout": 2, "output_every": 3},
            checkpoint_every=10,
            sanitize=True,
        )
    ).run()
    checks = result.extra["sanitizer"]["checks"]
    assert checks.get("orphan-free", 0) > 0
    assert checks.get("det-complete", 0) > 0
    assert checks.get("commit-order", 0) > 0
    assert result.extra["sanitizer"]["clean"]


# ----------------------------------------------------------------------
# seeded mutants: real runs with deliberately broken protocol behaviour
# ----------------------------------------------------------------------
def test_manetho_dropped_determinant_flush_caught(monkeypatch):
    """Marking a determinant host-stable without the durable log write
    behind it must trip the write-order invariant at ``det_stable``."""
    from repro.protocols.fbl import STABLE_HOST
    from repro.protocols.manetho import ManethoLogging

    def mutant(self, det, msg):
        # drop the log_append entirely; claim stability anyway
        self._track(det, self._own_mask)
        self._track(det, self.det_log.note_logged_at(det, STABLE_HOST))
        self._check_pending_outputs()

    monkeypatch.setattr(ManethoLogging, "_record_own_determinant", mutant)
    result = build_system(
        make("manetho", "nonblocking", sanitize=True)
    ).run()
    report = result.extra["sanitizer"]
    assert not report["clean"]
    violation = report["violations"][0]
    assert violation["invariant"] == "write-order"
    assert "host-stable" in violation["detail"]
    assert violation["time"] > 0.0


def deliver_before_log(monkeypatch):
    """The write-order mutant: pessimistic logging that skips the stable
    write and delivers immediately."""
    from repro.protocols.pessimistic import PessimisticLogging

    def mutant(self, sender, ssn, data, body_bytes):
        self._next_log_rsn += 1
        self._deliver(sender, ssn, data, None)

    monkeypatch.setattr(PessimisticLogging, "_log_then_deliver", mutant)


def test_pessimistic_deliver_before_log_caught(monkeypatch):
    """Delivering before the synchronous receipt-log write commits must
    trip the write-order invariant at the delivery itself."""
    deliver_before_log(monkeypatch)
    result = build_system(make("pessimistic", "local", sanitize=True)).run()
    report = result.extra["sanitizer"]
    assert not report["clean"]
    violation = report["violations"][0]
    assert violation["invariant"] == "write-order"
    assert "receipt-log" in violation["detail"]


# ----------------------------------------------------------------------
# handcrafted event streams through the real recorder + monitor
# ----------------------------------------------------------------------
def harness(protocol="fbl", recovery="nonblocking", n=3):
    """A recorder with an attached sanitizer, as ``System`` wires it."""
    config = SystemConfig(n=n, protocol=protocol, recovery=recovery)
    sanitizer = Sanitizer(config)
    trace = TraceRecorder()
    sanitizer.attach(trace)
    for node in range(n):
        trace.record(0.0, "node", node, "start")
    return trace, sanitizer


def test_orphan_delivery_caught_with_span_chain():
    """Delivering a message whose send was rolled back and never
    re-executed is an orphan, flagged at the delivery with the span
    chain that was open on the receiver."""
    trace, sanitizer = harness()
    # node 1 delivers once, then sends ssn 5 to node 0 from that state
    trace.record(0.10, "app", 1, "deliver", sender=2, ssn=0, rsn=0)
    trace.record(0.11, "app", 1, "send", dst=0, ssn=5, deliveries=1)
    # node 1 crashes and recovers having lost that delivery (and send)
    trace.record(0.20, "node", 1, "crash")
    trace.record(0.50, "node", 1, "recovered", delivered=0, incarnation=1)
    # node 0, mid-checkpoint, delivers the rolled-back message anyway
    trace.record(0.60, "span", 0, "begin", span=7, kind="node.checkpoint")
    trace.record(0.61, "app", 0, "deliver", sender=1, ssn=5, rsn=0)
    assert not sanitizer.clean
    violation = sanitizer.violations[0]
    assert violation.invariant == "orphan-free"
    assert violation.node == 0
    assert violation.time == 0.61
    assert "rolled back" in violation.detail
    assert [link["kind"] for link in violation.span_chain] == ["node.checkpoint"]


def test_recovery_orphaned_frontier_caught_after_clock_advance():
    """A live process left dependent on a delivery the recovery lost is
    flagged once the clock moves past the recovery instant."""
    trace, sanitizer = harness()
    trace.record(0.10, "app", 2, "send", dst=1, ssn=0, deliveries=0)
    trace.record(0.12, "app", 1, "deliver", sender=2, ssn=0, rsn=0)
    trace.record(0.14, "app", 1, "send", dst=0, ssn=1, deliveries=1)
    # node 0 now depends on node 1's delivery (1, 0)
    trace.record(0.30, "span", 0, "begin", span=9, kind="recovery.episode")
    trace.record(0.31, "app", 0, "deliver", sender=1, ssn=1, rsn=0)
    trace.record(0.40, "node", 1, "crash")
    # node 1 recovers with the delivery lost; slot (1, 0) never refills
    trace.record(0.50, "node", 1, "recovered", delivered=0, incarnation=1)
    assert sanitizer.clean  # deferred: same-instant refills must be allowed
    trace.record(0.60, "app", 2, "send", dst=1, ssn=1, deliveries=0)
    assert not sanitizer.clean
    violation = sanitizer.violations[0]
    assert violation.invariant == "orphan-free"
    assert violation.node == 0
    assert violation.time == 0.50
    assert "(1, 0)" in violation.detail
    assert [link["kind"] for link in violation.span_chain] == ["recovery.episode"]


def test_recovery_rollback_healed_at_same_instant_is_clean():
    """Slots re-occupied at the recovery timestamp itself (queued
    retransmissions) are restored state, not orphans."""
    trace, sanitizer = harness()
    trace.record(0.10, "app", 2, "send", dst=1, ssn=0, deliveries=0)
    trace.record(0.12, "app", 1, "deliver", sender=2, ssn=0, rsn=0)
    trace.record(0.14, "app", 1, "send", dst=0, ssn=1, deliveries=1)
    trace.record(0.31, "app", 0, "deliver", sender=1, ssn=1, rsn=0)
    trace.record(0.40, "node", 1, "crash")
    trace.record(0.50, "node", 1, "recovered", delivered=0, incarnation=1)
    # the queued retransmission lands at the recovery instant
    trace.record(0.50, "app", 1, "deliver", sender=2, ssn=0, rsn=0)
    trace.record(0.60, "app", 2, "send", dst=1, ssn=1, deliveries=0)
    sanitizer.finalize()
    assert sanitizer.clean, [str(v) for v in sanitizer.violations]


def test_det_ack_before_store_caught():
    """FBL may count a host toward f+1 replication only after the host
    recorded the determinant."""
    trace, sanitizer = harness()
    det = [2, 0, 1, 0]
    # node 1 processes an ack from node 2 that node 2 never earned
    trace.record(0.20, "protocol", 1, "det_ack", src=2, dets=[det])
    assert not sanitizer.clean
    violation = sanitizer.violations[0]
    assert violation.invariant == "det-complete"
    assert violation.node == 1
    assert violation.time == 0.20


def test_det_ack_after_store_is_clean():
    trace, sanitizer = harness()
    det = [2, 0, 1, 0]
    trace.record(0.10, "protocol", 2, "det_store", src=1, dets=[det])
    trace.record(0.20, "protocol", 1, "det_ack", src=2, dets=[det])
    sanitizer.finalize()
    assert sanitizer.clean


def test_block_under_nonblocking_recovery_caught():
    trace, sanitizer = harness(recovery="nonblocking")
    trace.record(0.30, "node", 2, "block")
    assert not sanitizer.clean
    violation = sanitizer.violations[0]
    assert violation.invariant == "no-block"
    assert violation.node == 2


def test_block_under_blocking_recovery_is_expected():
    trace, sanitizer = harness(recovery="blocking")
    trace.record(0.30, "node", 2, "block")
    sanitizer.finalize()
    assert sanitizer.clean


# ----------------------------------------------------------------------
# the online (keyed) monitor against the full-stream reference path
# ----------------------------------------------------------------------
def replayed_report(config, events):
    """The reference path: a fresh monitor fed *every* kept event, in
    order, through ``on_event``."""
    reference = Sanitizer(config)
    for event in events:
        reference.on_event(event)
    reference.finalize()
    return reference.report()


@pytest.fixture
def handed(monkeypatch):
    """Make every monitor keep, as ``.handed``, the events it is handed."""
    on_event = Sanitizer.on_event

    def recording(self, event):
        self.__dict__.setdefault("handed", []).append(event)
        on_event(self, event)

    monkeypatch.setattr(Sanitizer, "on_event", recording)


def assert_online_equals_replay(system, online):
    events = list(system.trace.events)
    reference = replayed_report(system.config, events)
    # violations with their span chains and order, checks, verdict
    for field in ("violations", "checks", "clean"):
        assert online[field] == reference[field], field
    # the one thing that differs by design: the online monitor is handed
    # the records it has a handler for, only those, in the kept order
    handled = [
        e for e in events if (e.category, e.action) in system.sanitizer._handlers
    ]
    assert system.sanitizer.handed == handled
    assert online["events_seen"] == len(handled) < len(events)
    assert reference["events_seen"] == len(events)


@pytest.mark.parametrize("protocol,recovery,max_crashes", COMBOS,
                         ids=[f"{p}-{r}" for p, r, _ in COMBOS])
def test_online_sanitizer_equals_full_stream_replay(
    handed, protocol, recovery, max_crashes
):
    for profile, seed in (("", 0), ("", 1), ("churn", 0), ("churn", 1)):
        config = chaos_config(protocol, recovery, max_crashes, seed, profile=profile)
        config.sanitize = True
        system = build_system(config)
        result = system.run()
        assert result.extra["sanitizer"]["checks"], config.name
        assert_online_equals_replay(system, result.extra["sanitizer"])


def test_online_sanitizer_sees_a_record_before_an_immediate_plan_reacts(handed):
    """A plan keyed on a record the monitor handles subscribes after it
    (``System`` attaches observers when built, arms plans when started):
    the monitor sees ``gather_start`` before the crash it triggers."""
    from repro import crash_on

    plan = crash_on(1, "recovery", "gather_start", immediate=True)
    system = build_system(
        make("fbl", "nonblocking", crashes=[crash_at(2, 0.03), plan], sanitize=True)
    )
    result = system.run()
    assert [node for _, node in system.injector.crashes_fired] == [2, 1]
    keys = [f"{e.category}.{e.action}" for e in system.sanitizer.handed]
    crashes = [i for i, key in enumerate(keys) if key == "node.crash"]
    assert crashes[0] < keys.index("recovery.gather_start") < crashes[1]
    assert_online_equals_replay(system, result.extra["sanitizer"])


def test_online_sanitizer_equals_replay_on_a_broken_run(handed, monkeypatch):
    """Same equality where there is something to report: the write-order
    mutant's violations, chains and order survive the keyed path."""
    deliver_before_log(monkeypatch)
    system = build_system(make("pessimistic", "local", sanitize=True))
    online = system.run().extra["sanitizer"]
    assert len(online["violations"]) > 1
    assert_online_equals_replay(system, online)


def test_deferred_orphan_judgement_waits_for_a_handled_record():
    """Records without a handler no longer reach the monitor, so the
    deferred recovery-orphan judgement runs at the next handled record
    instead of the next record -- over state only handlers write."""
    trace, sanitizer = harness()
    trace.record(0.10, "app", 2, "send", dst=1, ssn=0, deliveries=0)
    trace.record(0.12, "app", 1, "deliver", sender=2, ssn=0, rsn=0)
    trace.record(0.14, "app", 1, "send", dst=0, ssn=1, deliveries=1)
    trace.record(0.30, "span", 0, "begin", span=9, kind="recovery.episode")
    trace.record(0.31, "app", 0, "deliver", sender=1, ssn=1, rsn=0)
    trace.record(0.40, "node", 1, "crash")
    trace.record(0.50, "node", 1, "recovered", delivered=0, incarnation=1)
    trace.record(0.55, "net", 2, "send", dst=1)  # no handler: not seen
    assert sanitizer.clean
    trace.record(0.60, "span", 0, "end", span=9, kind="recovery.episode")
    # judged before the handled record's own handler closed the span
    assert [v.time for v in sanitizer.violations] == [0.50]
    assert [link["kind"] for link in sanitizer.violations[0].span_chain] == [
        "recovery.episode"
    ]
    sanitizer.finalize()
    config = SystemConfig(n=3, protocol="fbl", recovery="nonblocking")
    reference = replayed_report(config, trace.events)
    assert sanitizer.report()["violations"] == reference["violations"]
    assert sanitizer.events_seen == len(trace.events) - 1


# ----------------------------------------------------------------------
# the schedule-perturbation differ
# ----------------------------------------------------------------------
def test_derive_tiebreak_seed_is_canonical_for_replica_zero():
    from repro.sanitizer.differ import derive_tiebreak_seed

    assert derive_tiebreak_seed(0, 0) is None
    assert derive_tiebreak_seed(1234, 0) is None
    one = derive_tiebreak_seed(7, 1)
    two = derive_tiebreak_seed(7, 2)
    assert one is not None and two is not None and one != two
    assert derive_tiebreak_seed(7, 1) == one  # deterministic


def test_check_trial_requires_two_replicas():
    from repro.sanitizer.differ import check_trial

    with pytest.raises(ValueError):
        check_trial(small_config(), replicas=1)


def test_check_trial_clean_protocol_has_no_divergence():
    from repro.sanitizer.differ import check_trial

    config = make(
        "fbl", "nonblocking", crashes=[crash_at(2, 0.03)], sanitize=True
    )
    report = check_trial(config, replicas=2, jobs=1)
    assert report.ok, report.divergences
    assert len(report.replicas) == 2
    assert report.replicas[0].tiebreak_seed is None
    assert report.replicas[1].tiebreak_seed is not None
    for outcome in report.replicas:
        assert outcome.semantic["consistent"]
        assert outcome.semantic["sanitizer_clean"]
        assert outcome.semantic["progressed"]
    payload = report.as_dict()
    assert payload["ok"] and payload["seed"] == config.seed


def test_check_trial_flags_unhealthy_replica():
    """Health problems inside any replica are divergences even when the
    replicas agree with each other."""
    from repro.sanitizer import differ

    problems = differ._health_problems(
        {
            "consistent": False,
            "sanitizer_clean": False,
            "non_live_nodes": [3],
            "episodes_complete": False,
            "progressed": False,
        }
    )
    assert len(problems) == 5
    clean = differ._health_problems(
        {
            "consistent": True,
            "sanitizer_clean": None,  # sanitizer off -> not a failure
            "non_live_nodes": [],
            "episodes_complete": True,
            "progressed": True,
        }
    )
    assert clean == []


# ----------------------------------------------------------------------
# exhaustive small-scope checking
# ----------------------------------------------------------------------
def exhaustive_config(**kw):
    from repro.sanitizer.differ import exhaustive_check_trial  # noqa: F401

    kw.setdefault("n", 3)
    kw.setdefault("workload_params", {"hops": 8, "fanout": 1})
    return make("fbl", "nonblocking", crashes=[crash_at(2, 0.03)], **kw)


def test_exhaustive_check_clean_trial_has_no_divergence():
    from repro.sanitizer.differ import exhaustive_check_trial

    report = exhaustive_check_trial(exhaustive_config(), max_schedules=8)
    assert report.ok, report.divergences
    assert report.schedules >= 2  # the canonical run plus real alternatives
    assert report.decision_points > 0
    assert report.max_width >= 2
    payload = report.as_dict()
    assert payload["mode"] == "exhaustive"
    assert payload["ok"] and payload["schedules"] == report.schedules


def test_exhaustive_check_budget_marks_incomplete():
    from repro.sanitizer.differ import exhaustive_check_trial

    report = exhaustive_check_trial(exhaustive_config(), max_schedules=2)
    assert report.schedules == 2
    assert not report.complete  # the tree is far bigger than two runs
    assert report.ok  # truncation alone is not a divergence


def test_exhaustive_check_rejects_empty_budget():
    from repro.sanitizer.differ import exhaustive_check_trial

    with pytest.raises(ValueError):
        exhaustive_check_trial(exhaustive_config(), max_schedules=0)


def test_exhaustive_check_flags_schedule_divergence(monkeypatch):
    """A schedule whose semantic outcome differs from the canonical run
    must be reported (here: the fingerprint is perturbed under the
    covers, standing in for a real schedule-dependent bug)."""
    from repro.sanitizer import differ

    real = differ.semantic_fingerprint
    seen = {"count": 0}

    def skewed(summary):
        fingerprint = dict(real(summary))
        seen["count"] += 1
        if seen["count"] > 1:  # every non-canonical schedule "progresses
            fingerprint["progressed"] = False  # differently"
            fingerprint["consistent"] = False
        return fingerprint

    monkeypatch.setattr(differ, "semantic_fingerprint", skewed)
    report = differ.exhaustive_check_trial(
        exhaustive_config(), max_schedules=3
    )
    assert not report.ok
    assert any("consistent" in d or "progressed" in d
               for d in report.divergences)
