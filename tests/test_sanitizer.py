"""Sanitizer tests: mutants are caught, and clean runs stay clean and
byte-identical.

Two layers:

* **Goldens** -- every protocol/recovery pairing from the integration
  matrix, with a crash, runs clean under ``sanitize=True`` and produces
  byte-identical digests, end time, and message counts to the same run
  without the monitor (the sanitizer only observes).
* **Seeded mutants** -- deliberately broken protocol behaviour (a
  dropped determinant flush, a delivery before its receipt-log write, an
  ack before the store, a block under non-blocking recovery) must each
  be caught at the violating event.

Orphan freedom is the oracle's rule, not the monitor's:
``tests/test_core_oracle.py`` tests it.
"""

from dataclasses import replace

import pytest

from repro import build_system, crash_at
from repro.core.config import SystemConfig
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
    # the commit-order gate; the orphan rule is the oracle's
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
    assert checks.get("det-complete", 0) > 0
    assert checks.get("commit-order", 0) > 0
    assert checks.get("recovery-epoch", 0) > 0
    assert "orphan-free" not in checks
    assert result.extra["sanitizer"]["clean"] and result.consistent


@pytest.mark.parametrize("protocol,recovery", PAIRINGS)
def test_sanitized_run_keeps_one_causal_record(monkeypatch, protocol, recovery):
    """The monitor reads the oracle's graph and records nothing itself:
    each send and each delivery is recorded once.  Coordinated
    checkpointing writes no ``app.send`` record: each of its sends is
    one application message on the wire."""
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
    if protocol == "coordinated":
        sends = result.network.messages["application"]
    else:
        sends = counters["app.send"]
    assert recorded == {"record_send": sends, "record_delivery": counters["app.deliver"]}


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
    """A recorder with an attached sanitizer, as ``System`` wires them;
    the invariants fed here read nothing from the causal graph."""
    config = SystemConfig(n=n, protocol=protocol, recovery=recovery)
    trace = TraceRecorder()
    sanitizer = Sanitizer(config, CausalGraph())
    sanitizer.attach(trace)
    for node in range(n):
        trace.record(0.0, "node", node, "start")
    return trace, sanitizer


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
    *every* kept event, in order, through ``on_event``.  The graph gets
    what the one invariant that reads it (pessimistic ``commit-order``,
    looking up a delivery) needs, as the oracle writes it in a run: the
    rollback before ``node.recovered``, the delivery or the prune after
    ``app.deliver`` or ``node.checkpoint_durable``."""
    graph = CausalGraph()
    reference = Sanitizer(config, graph)
    for event in events:
        key, node, details = f"{event.category}.{event.action}", event.node, event.details
        if key == "node.recovered":
            graph.roll_back(node, details["delivered"])
        reference.on_event(event)
        if key == "app.deliver":
            graph.record_delivery(node, details["rsn"], (details["sender"], details["ssn"]))
        elif key == "node.checkpoint_durable":
            graph.prune(node, details["delivered"])
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
    for field in ("violations", "checks", "clean", "events_seen"):
        assert online[field] == reference[field], field
    # online, the monitor is handed the records it has a handler for,
    # only those, in the kept order: what the reference counts as seen
    handed = system.sanitizer.handed
    assert handed == [e for e in events if key(e) in system.sanitizer._handlers]
    assert online["events_seen"] == len(handed) < len(events)


@pytest.mark.parametrize("protocol,recovery,max_crashes", COMBOS,
                         ids=[f"{p}-{r}" for p, r, _ in COMBOS])
def test_online_sanitizer_equals_full_stream_replay(
    handed, protocol, recovery, max_crashes
):
    checked = set()
    for profile, seed in (("", 0), ("", 1), ("churn", 0), ("churn", 1)):
        config = replace(
            chaos_config(protocol, recovery, max_crashes, seed, profile=profile),
            sanitize=True,
        )
        system = build_system(config)
        result = system.run()
        checked.update(result.extra["sanitizer"]["checks"])
        assert_online_equals_replay(system, result.extra["sanitizer"])
    assert checked  # the churn trials' crashes give every stack something to judge


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
