"""Sanitizer tests: mutants are caught, and clean runs stay clean and
byte-identical.

Two layers:

* **Goldens** -- every protocol/recovery pairing from the integration
  matrix, with a crash, runs clean under ``sanitize=True`` and produces
  byte-identical digests, end time, and message counts to the same run
  without the monitor (the sanitizer only observes).
* **Seeded mutants** -- deliberately broken protocol behaviour (a
  dropped determinant flush, a delivery before its receipt-log write, an
  orphan delivery, an ack before the store, a block under non-blocking
  recovery) must each be caught at the violating event.
"""

from functools import partial

import pytest

from repro import build_system, crash_at
from repro.core.config import SystemConfig
from repro.protocols import PROTOCOLS
from repro.sanitizer.causal import CausalGraph
from repro.sanitizer.monitor import Sanitizer
from repro.sim.trace import TraceRecorder

from helpers import watch_sanitizer_handlers
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


@pytest.mark.parametrize(
    "protocol,recovery",
    [(p, r) for p, r in PAIRINGS if PROTOCOLS[p].oracle_compatible],
)
def test_sanitized_run_keeps_one_causal_record(monkeypatch, protocol, recovery):
    """The monitor reads the oracle's graph and records nothing itself:
    each send and each delivery is recorded once."""
    recorded = {"record_send": 0, "record_delivery": 0}
    for name in recorded:
        original = getattr(CausalGraph, name)

        def counting(self, *args, _name=name, _original=original):
            recorded[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(CausalGraph, name, counting)
    system = build_system(
        make(protocol, recovery, crashes=[crash_at(node=2, time=0.03)], sanitize=True)
    )
    result = system.run()
    assert result.extra["sanitizer"]["clean"]
    assert system.sanitizer.graph is system.oracle.graph
    counters = system.trace.counters
    assert recorded == {
        "record_send": counters["app.send"],
        "record_delivery": counters["app.deliver"],
    }


@pytest.mark.parametrize("replica", [0, 1])
def test_recovery_orphan_judgement_runs_before_the_graph_records_the_next_delivery(replica):
    """Churn ``fbl/blocking`` seed 8: node 3's recovery at t=2.15828
    rolls back its delivery at rsn 0, and the deferred recovery-orphan
    judgement runs at the first record after that instant -- node 3
    delivering rsn 0 again.  Judged against a graph that already held
    that delivery (the oracle writing before the emit), the slot looks
    refilled and the check is skipped: 253 ``orphan-free`` checks, one
    short of the run judged as it happened."""
    config = chaos_config("fbl", "blocking", 2, 8, profile="churn", replica=replica)
    config.sanitize = True
    report = build_system(config).run().extra["sanitizer"]
    assert report["checks"]["orphan-free"] == 254


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
def with_oracle_writes(graph, category, node, action, details, publish):
    """Run ``publish()`` with the causal-graph writes the oracle makes
    around that record in a run: the rollback just before
    ``node.recovered``; the send, the delivery or the prune just after
    ``app.send``, ``app.deliver`` or ``node.checkpoint_durable``."""
    key = f"{category}.{action}"
    if key == "node.recovered":
        graph.roll_back(node, details["delivered"])
    publish()
    if key == "app.send":
        graph.record_send(node, details["ssn"], details["dst"], details["deliveries"])
    elif key == "app.deliver":
        graph.record_delivery(node, details["rsn"], (details["sender"], details["ssn"]))
    elif key == "node.checkpoint_durable":
        graph.prune(node, details["delivered"])


class OracleFedTrace(TraceRecorder):
    """A recorder whose records also write the causal graph, in the
    order the oracle writes it in a run."""

    def __init__(self, graph):
        super().__init__()
        self.graph = graph

    def record(self, time, category, node, action, **details):
        publish = partial(super().record, time, category, node, action, **details)
        with_oracle_writes(self.graph, category, node, action, details, publish)


def harness(protocol="fbl", recovery="nonblocking", n=3):
    """A recorder with an attached sanitizer over one causal graph, as
    ``System`` wires them."""
    config = SystemConfig(n=n, protocol=protocol, recovery=recovery)
    trace = OracleFedTrace(CausalGraph())
    sanitizer = Sanitizer(config, trace.graph)
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
    """The reference path: a fresh monitor over a fresh causal graph, fed
    *every* kept event, in order, through ``on_event``, with the graph
    written around each record as the oracle writes it (no oracle, no
    writes: the stacks that run the null oracle)."""
    graph = CausalGraph()
    reference = Sanitizer(config, graph)
    judged = PROTOCOLS[config.protocol].oracle_compatible
    for event in events:
        if judged:
            with_oracle_writes(graph, event.category, event.node, event.action,
                               event.details, partial(reference.on_event, event))
        else:
            reference.on_event(event)
    reference.finalize()
    return reference.report()


@pytest.fixture
def handed(monkeypatch):
    """Make every monitor keep, as ``.handed``, the events it is handed."""
    watch_sanitizer_handlers(
        monkeypatch,
        lambda sanitizer, event: sanitizer.__dict__.setdefault("handed", []).append(event),
    )


def key(event):
    return f"{event.category}.{event.action}"


def assert_online_equals_replay(system, online):
    events = list(system.trace.events)
    reference = replayed_report(system.config, events)
    # violations with their span chains and order, checks, verdict
    for field in ("violations", "checks", "clean"):
        assert online[field] == reference[field], field
    # the one thing that differs by design: the online monitor is handed
    # the records it has a handler for, only those, in the kept order --
    # and app.send only while a deferred recovery-orphan judgement waits,
    # i.e. at a recovery instant, before any later record was handed
    handed = system.sanitizer.handed
    handled = [e for e in events if key(e) in system.sanitizer._handlers]
    assert [e for e in handed if key(e) != "app.send"] == [
        e for e in handled if key(e) != "app.send"
    ]
    kept = iter(handled)
    assert all(any(e == k for k in kept) for e in handed)  # in kept order
    recovered_at = None
    for event in handed:
        if key(event) == "app.send":
            assert recovered_at is not None and event.time >= recovered_at
        if key(event) == "node.recovered":
            recovered_at = event.time
        elif recovered_at is not None and event.time > recovered_at:
            recovered_at = None  # the judgement ran: app.send is dropped
    assert online["events_seen"] == len(handed) <= len(handled) < len(events)
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
    # not seen: the net.send, and the two app.sends made while no
    # recovery-orphan judgement waited
    assert sanitizer.events_seen == len(trace.events) - 3
