"""EXPERIMENTS.md's tables, regenerated from the simulator.

One function per table.  Each builds its configs from
:func:`repro.experiments.paper_config` (the paper's Section-5 setting:
eight processes, FBL f = 2, a 1 MB process image, 3 s failure
detection), runs them through :func:`repro.runner.run_results`, asserts
the paper claims the table stands for, and returns its headers and
rows.  Every run must end oracle-consistent.

Rewrite every table in EXPERIMENTS.md::

    PYTHONPATH=src python benchmarks/paper_tables.py

A table sits between ``<!-- table NAME -->`` and ``<!-- /table -->``;
the prose around it is not touched.  ``benchmarks/test_paper_tables.py``
fails, naming the table, when a block differs from what its function
returns now.
"""

from __future__ import annotations

import difflib
import re
import sys
from contextlib import closing
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_HERE = Path(__file__).resolve().parent
if str(_HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(_HERE.parent / "src"))

from repro import crash_at, crash_on  # noqa: E402
from repro.analysis.cost import overhead_shares  # noqa: E402
from repro.analysis.stats import summarize  # noqa: E402
from repro.cli import STACKS  # noqa: E402
from repro.core.config import StorageRealismConfig, SystemConfig  # noqa: E402
from repro.core.metrics import RunResult  # noqa: E402
from repro.core.system import System, build_system  # noqa: E402
from repro.experiments import (  # noqa: E402
    failure_during_recovery,
    figure1,
    leader_failure,
    lossy_network,
    output_commit_scenario,
    paper_config,
    single_failure,
)
from repro.procs.failure import partition_at  # noqa: E402
from repro.runner import run_results  # noqa: E402

DOC = _HERE.parent / "EXPERIMENTS.md"

Table = Tuple[List[str], List[List[Any]]]

#: table name -> the function that measures it, in EXPERIMENTS.md order
TABLES: Dict[str, Callable[[], Table]] = {}


def table(name: str) -> Callable[[Callable[[], Table]], Callable[[], Table]]:
    """Register a table function under the name its markers carry."""

    def register(fn: Callable[[], Table]) -> Callable[[], Table]:
        TABLES[name] = fn
        return fn

    return register


def _consistent(result: RunResult) -> None:
    assert result.consistent, (
        f"{result.config_name}: {result.oracle_violations[:2]}"
    )


def run(configs: Sequence[SystemConfig]) -> List[RunResult]:
    """One trial per config through the trial runner; each must end
    oracle-consistent."""
    results = run_results(configs)
    for result in results:
        _consistent(result)
    return results


def run_system(
    system: System, read: Callable[[System], Any] = lambda system: None
) -> Tuple[RunResult, Any]:
    """Run one built System in this process, for a table that reads the
    System itself (its logs, its lost work, its workload), which a
    runner result does not carry.  Returns the result and
    ``read(system)``."""
    with closing(system):
        result = system.run()
        _consistent(result)
        return result, read(system)


def _restarts(result: RunResult) -> int:
    return sum(e.gather_restarts for e in result.episodes)


def _invalidations(result: RunResult) -> int:
    return sum(e.reply_invalidations for e in result.episodes)


def _handoffs(result: RunResult) -> int:
    return sum(e.leader_handoffs for e in result.episodes)


def _sync_stall(result: RunResult) -> float:
    return sum(ops.get("sync_stall", 0.0) for ops in result.storage_ops.values())


# ----------------------------------------------------------------------
# E1 -- a single failure (Section 5)
# ----------------------------------------------------------------------
VICTIM = 3  # single_failure's victim


@table("E1")
def e1_single_failure() -> Table:
    """Same recovery time under both algorithms; blocking stalls each
    live process for tens of ms, the new algorithm stalls none and pays
    more control messages."""
    blocking, nonblocking = run(
        [single_failure("blocking"), single_failure("nonblocking")]
    )
    d_blk = blocking.recovery_durations()[0]
    d_nb = nonblocking.recovery_durations()[0]
    blocked_blk = blocking.mean_blocked_time(exclude=[VICTIM])
    blocked_nb = nonblocking.mean_blocked_time(exclude=[VICTIM])
    assert abs(d_blk - d_nb) / max(d_blk, d_nb) < 0.05
    assert 0.005 < blocked_blk < 0.5
    assert blocked_nb == 0.0
    assert nonblocking.recovery_messages() > blocking.recovery_messages()
    return (
        ["algorithm", "recovery (s)", "live blocked (ms)", "recovery msgs",
         "recovery bytes"],
        [
            ["blocking", f"{d_blk:.3f}", f"{blocked_blk * 1000:.1f}",
             blocking.recovery_messages(), blocking.recovery_bytes()],
            ["nonblocking (new)", f"{d_nb:.3f}", f"{blocked_nb * 1000:.1f}",
             nonblocking.recovery_messages(), nonblocking.recovery_bytes()],
        ],
    )


@table("E1-anatomy")
def e1_anatomy() -> Table:
    """The distributed part of the new algorithm costs milliseconds."""
    (result,) = run([single_failure("nonblocking", seed=3)])
    episode = result.episodes[0]
    algorithm_time = (
        episode.total_duration - episode.detection_duration - episode.restore_duration
    )
    assert algorithm_time < 0.05
    return (
        ["phase", "seconds"],
        [
            ["failure detection", f"{episode.detection_duration:.3f}"],
            ["state restore", f"{episode.restore_duration:.3f}"],
            ["algorithm + replay", f"{algorithm_time:.4f}"],
        ],
    )


# ----------------------------------------------------------------------
# E2 -- a failure during recovery (Section 5), and recovery under churn
# ----------------------------------------------------------------------
P, Q = 3, 5  # failure_during_recovery's first and second victims


def _e2_pair() -> List[RunResult]:
    return run([failure_during_recovery("blocking"),
                failure_during_recovery("nonblocking")])


@table("E2")
def e2_failure_during_recovery() -> Table:
    """Both recoveries take seconds (detection + restore); blocking
    stalls live processes for those seconds, the new algorithm for none,
    and q's failure mid-round invalidates one reply instead of
    restarting the gather."""
    blocking, nonblocking = _e2_pair()
    rows = []
    for label, result in (("blocking", blocking), ("nonblocking (new)", nonblocking)):
        durations = sorted(result.recovery_durations(), reverse=True)
        rows.append([
            label,
            f"{durations[0]:.2f}",
            f"{durations[1]:.2f}",
            f"{result.mean_blocked_time(exclude=[P, Q]):.3f}",
            result.recovery_messages(),
            _restarts(result),
            _invalidations(result),
        ])
    assert min(nonblocking.recovery_durations()) > 3.0
    assert min(blocking.recovery_durations()) > 3.0
    assert blocking.mean_blocked_time(exclude=[P, Q]) > 3.0
    assert nonblocking.total_blocked_time == 0.0
    assert _restarts(nonblocking) == 0
    assert _invalidations(nonblocking) >= 1
    assert len(blocking.recovery_durations()) == 2
    assert len(nonblocking.recovery_durations()) == 2
    return (
        ["algorithm", "p total (s)", "q total (s)", "live blocked (s)",
         "recovery msgs", "gather restarts", "replies invalidated"],
        rows,
    )


@table("E2-extra")
def e2_extra_communication() -> Table:
    """The new algorithm's extra second-phase messages cost milliseconds
    of wire time (155 Mb/s, sub-ms per message)."""
    blocking, nonblocking = _e2_pair()
    extra_messages = nonblocking.recovery_messages() - blocking.recovery_messages()
    extra_bytes = nonblocking.recovery_bytes() - blocking.recovery_bytes()
    wire_seconds = extra_bytes * 8 / 155e6 + extra_messages * 350e-6
    assert extra_messages > 0
    assert wire_seconds < 0.1  # "about milliseconds"
    return (
        ["extra msgs", "extra bytes", "approx wire time (ms)"],
        [[extra_messages, extra_bytes, f"{wire_seconds * 1000:.2f}"]],
    )


def _churn_crashes():
    """k = 3 failure events inside one recovery window: p and q crash
    back to back, then the gather leader dies the instant it has
    collected the full round of depinfo replies -- before distributing."""
    return [
        crash_at(node=2, time=0.05),
        crash_at(node=4, time=0.06),
        crash_on(2, "recovery", "depinfo_reply_accepted", match_node=2,
                 occurrence=6, immediate=True),
    ]


@table("E2b")
def e2b_leader_crash() -> Table:
    """A leader crash mid-gather: the successor resumes the round the
    dead leader persisted at the sequencer."""
    (result,) = run([
        paper_config("e2-churn-nonblocking", recovery="nonblocking", f=3,
                     crashes=_churn_crashes())
    ])
    assert _handoffs(result) == 1
    return (
        ["recovery (s)", "gather restarts", "handoffs", "recovery msgs"],
        [[f"{max(result.recovery_durations()):.2f}", _restarts(result),
          _handoffs(result), result.recovery_messages()]],
    )


@table("E2c")
def e2c_partition_during_recovery() -> Table:
    """Cascading failures plus a partition during recovery (heals at
    t = 14.1, observed to t = 30).  On the paper's bare channels a
    request swallowed by the partition is never retried; the successor
    resumes the persisted round, which already holds the isolated
    member's reply, so nothing needs to cross the partition."""
    # one live member is isolated for 10 s just after the leader
    # collected its reply
    (result,) = run([paper_config(
        "e2-partition-nonblocking", recovery="nonblocking", f=3,
        crashes=_churn_crashes(),
        injections=[
            partition_at([[7], [0, 1, 2, 3, 4, 5, 6, 8]], 4.09, duration=10.0)
        ],
        run_until=30.0,
    )])
    final = {}
    for episode in result.episodes:
        final[episode.node] = episode
    served_at = [
        round(e.replay_start_time, 2)
        for e in final.values() if e.replay_start_time is not None
    ]
    # every recovering process got its depinfo from the resumed round,
    # six seconds before the partition even healed
    assert len(served_at) == len(final)
    assert max(served_at) < 10.0
    assert _handoffs(result) == 1
    return (
        ["depinfo served", "served at (s)", "gather restarts", "handoffs",
         "recovery msgs"],
        [[f"{len(served_at)}/{len(final)}", ", ".join(str(t) for t in served_at),
          _restarts(result), _handoffs(result), result.recovery_messages()]],
    )


# ----------------------------------------------------------------------
# E3 -- stable-storage sweeps
# ----------------------------------------------------------------------
DEVICES = [
    ("fast array", 0.002, 10e6),
    ("mid-90s disk", 0.020, 1e6),
    ("slow old disk", 0.060, 0.4e6),
]

STATE_SIZES = [100_000, 1_000_000, 10_000_000]


def _storage_pairs(points) -> List[Tuple[RunResult, RunResult]]:
    """(blocking, nonblocking) for each (op latency, bandwidth, state
    bytes) point, one crash each."""
    results = run([
        paper_config(
            f"e3-{recovery}-{latency}-{state_bytes}", recovery=recovery,
            crashes=[crash_at(node=VICTIM, time=0.05)],
            storage_op_latency=latency, storage_bandwidth=bandwidth,
            state_bytes=state_bytes,
        )
        for latency, bandwidth, state_bytes in points
        for recovery in ("blocking", "nonblocking")
    ])
    return list(zip(results[::2], results[1::2]))


@table("E3a")
def e3a_device_speed() -> Table:
    """Blocking's intrusion grows with storage latency; the new
    algorithm never blocks, whatever the device."""
    pairs = _storage_pairs([(latency, bandwidth, 1_000_000)
                            for _, latency, bandwidth in DEVICES])
    blocked = [blocking.mean_blocked_time(exclude=[VICTIM]) for blocking, _ in pairs]
    assert blocked[0] < blocked[1] < blocked[2]
    assert all(nonblocking.total_blocked_time == 0.0 for _, nonblocking in pairs)
    return (
        ["device", "blk blocked (ms)", "nb blocked (ms)", "blk recovery (s)",
         "nb recovery (s)"],
        [
            [label,
             f"{blocking.mean_blocked_time(exclude=[VICTIM]) * 1000:.1f}",
             f"{nonblocking.mean_blocked_time(exclude=[VICTIM]) * 1000:.1f}",
             f"{blocking.recovery_durations()[0]:.2f}",
             f"{nonblocking.recovery_durations()[0]:.2f}"]
            for (label, _, _), (blocking, nonblocking) in zip(DEVICES, pairs)
        ],
    )


@table("E3b")
def e3b_process_size() -> Table:
    """Recovery time grows with the process image (mid-90s disk); the
    new algorithm's intrusion stays zero."""
    pairs = _storage_pairs([(0.020, 1e6, size) for size in STATE_SIZES])
    assert all(nonblocking.total_blocked_time == 0.0 for _, nonblocking in pairs)
    return (
        ["process size", "blk recovery (s)", "nb recovery (s)",
         "blk blocked (ms)", "nb blocked (ms)"],
        [
            [f"{size // 1000} KB",
             f"{blocking.recovery_durations()[0]:.2f}",
             f"{nonblocking.recovery_durations()[0]:.2f}",
             f"{blocking.mean_blocked_time(exclude=[VICTIM]) * 1000:.1f}",
             f"{nonblocking.total_blocked_time * 1000:.1f}"]
            for size, (blocking, nonblocking) in zip(STATE_SIZES, pairs)
        ],
    )


# ----------------------------------------------------------------------
# E4 -- the Figure 1 execution (Section 2.1)
# ----------------------------------------------------------------------
@table("E4")
def e4_figure1() -> Table:
    """#m is stored at exactly p, q and r (f + 1 = 3 hosts); after p and
    q fail together both recover to their pre-crash histories under
    either recovery algorithm, and the blocking one stalls r."""
    S, FP, FQ, R = 0, 1, 2, 3

    def digests(system):
        return {i: system.nodes[i].app.digest for i in (FP, FQ, R)}

    def holders(system):
        det_m = system.nodes[FP].protocol.det_log.for_receiver(FP)[0]
        return ([i for i in range(4) if det_m in system.nodes[i].protocol.det_log],
                digests(system))

    def histories(system):
        return (system.nodes[FP].app.delivery_history,
                system.nodes[FQ].app.delivery_history, digests(system))

    _, (hosts, clean_digests) = run_system(figure1(), holders)
    _, (p_history, q_history, recovered) = run_system(
        figure1(crash_p=True, crash_q=True), histories
    )
    blocking, _ = run_system(figure1(recovery="blocking", crash_p=True, crash_q=True))
    assert set(hosts) >= {FP, FQ, R}
    assert p_history == [(S, 0)]
    assert q_history == [(FP, 0)]
    assert recovered == clean_digests
    assert len(blocking.recovery_durations()) == 2
    assert blocking.blocked_time_by_node.get(R, 0.0) > 0
    return (
        ["check", "value"],
        [
            ["hosts storing #m after the chain", ", ".join(map(str, hosts))],
            ["#m stable at f+1 = 3 hosts", str(len(hosts) >= 3)],
            ["p's history after p+q fail and recover", str(p_history)],
            ["q's history after p+q fail and recover", str(q_history)],
            ["digests equal failure-free run", str(recovered == clean_digests)],
        ],
    )


# ----------------------------------------------------------------------
# E5 -- scalability in n (Section 2.2)
# ----------------------------------------------------------------------
SIZES = [4, 8, 16, 32]


def e5_configs() -> List[SystemConfig]:
    """One crash at each n, blocking then non-blocking per size; the
    table reads only aggregates, so traces keep counters only."""
    return [
        paper_config(
            f"e5-{recovery}-{n}", recovery=recovery, n=n,
            crashes=[crash_at(node=1, time=0.05)], hops=30,
            keep_trace_events=False,
        )
        for n in SIZES
        for recovery in ("blocking", "nonblocking")
    ]


@table("E5")
def e5_scalability() -> Table:
    """Blocking's aggregate intrusion grows with n; the new algorithm's
    is zero at every n; both message counts grow about linearly, with
    the new algorithm's premium at every size."""
    results = run(e5_configs())
    pairs = list(zip(results[::2], results[1::2]))
    assert pairs[0][0].total_blocked_time < pairs[-1][0].total_blocked_time
    assert all(nonblocking.total_blocked_time == 0.0 for _, nonblocking in pairs)
    for series in zip(*pairs):
        growth = series[-1].recovery_messages() / series[0].recovery_messages()
        assert growth < 2 * SIZES[-1] / SIZES[0]
    assert all(nb.recovery_messages() > blk.recovery_messages() for blk, nb in pairs)
    return (
        ["n", "blk total blocked (s)", "nb total blocked (s)",
         "blk recovery msgs", "nb recovery msgs"],
        [
            [n, f"{blocking.total_blocked_time:.3f}",
             f"{nonblocking.total_blocked_time:.3f}",
             blocking.recovery_messages(), nonblocking.recovery_messages()]
            for n, (blocking, nonblocking) in zip(SIZES, pairs)
        ],
    )


# ----------------------------------------------------------------------
# E6 -- failure-free overhead (Section 2)
# ----------------------------------------------------------------------
F_VALUES = [1, 2, 4, 7]

SHARE_HEADERS = ["piggyback %", "det-log %", "control %", "overhead %"]


def _shares(result: RunResult) -> List[str]:
    """The cost ledger's overhead shares of all wire bytes."""
    return [f"{100 * share:.1f}%" for share in overhead_shares(result.extra["cost"]).values()]


@table("E6-f")
def e6_piggyback_grows_with_f() -> Table:
    """Applications pay only for the f they tolerate: piggybacked
    determinants, and their share of the wire, grow with f."""
    results = run([paper_config(f"e6-f{f}", f=f, cost_ledger=True) for f in F_VALUES])
    piggybacked = [r.extra["piggyback_determinants"] for r in results]
    assert piggybacked[0] < piggybacked[-1]
    assert all(a <= b * 1.05 for a, b in zip(piggybacked, piggybacked[1:]))
    shares = [overhead_shares(r.extra["cost"])["piggyback-determinant"] for r in results]
    assert shares[0] < shares[-1]
    return (
        ["f", "determinants piggybacked", "piggyback bytes", "dets per app msg"]
        + SHARE_HEADERS,
        [
            [f, dets, result.extra["piggyback_bytes"],
             f"{dets / max(1, result.network.messages.get('application', 1)):.2f}"]
            + _shares(result)
            for f, dets, result in zip(F_VALUES, piggybacked, results)
        ],
    )


@table("E6-landscape")
def e6_cost_landscape() -> Table:
    """Every stack ``repro report cost --all-protocols`` reports,
    failure-free: FBL makes no stable writes, pessimistic stalls on
    every delivery, Manetho writes asynchronously and stalls nobody."""
    results = run([
        paper_config(label, protocol=protocol, recovery=recovery, cost_ledger=True)
        for label, protocol, recovery in STACKS
    ])
    by_label = {label: result for (label, _, _), result in zip(STACKS, results)}

    def writes(result):
        return sum(ops["writes"] for ops in result.storage_ops.values())

    assert _sync_stall(by_label["fbl+nonblocking"]) == 0.0
    assert _sync_stall(by_label["pessimistic"]) > 1.0
    assert writes(by_label["manetho"]) > writes(by_label["fbl+nonblocking"])
    assert _sync_stall(by_label["manetho"]) == 0.0
    return (
        ["protocol", "piggybacked dets", "storage writes", "sync stall (s)"]
        + SHARE_HEADERS,
        [
            [label, result.extra["piggyback_determinants"], writes(result),
             f"{_sync_stall(result):.3f}"] + _shares(result)
            for label, result in by_label.items()
        ],
    )


# ----------------------------------------------------------------------
# E7 -- the protocol families of Section 6
# ----------------------------------------------------------------------
#: ``(label, protocol, recovery)``; parameters are the protocol defaults
FAMILIES = [
    ("fbl(f=2)+nonblocking", "fbl", "nonblocking"),
    ("fbl(f=2)+blocking", "fbl", "blocking"),
    ("sender_based(f=1)", "sender_based", "nonblocking"),
    ("manetho(f=n)", "manetho", "nonblocking"),
    ("pessimistic", "pessimistic", "local"),
    ("optimistic", "optimistic", "optimistic"),
    ("coordinated", "coordinated", "coordinated"),
]


@table("E7")
def e7_protocol_families() -> Table:
    """One crash, seven stacks: the FBL family neither orphans nor
    stalls failure-free; pessimistic stalls failure-free but recovers
    with few messages; optimistic orphans live processes; coordinated
    rolls every process back and loses work."""
    measured = {
        label: run_system(
            build_system(paper_config(
                f"e7-{label}", protocol=protocol, recovery=recovery,
                crashes=[crash_at(node=VICTIM, time=0.1)],
            )),
            lambda system: system.metrics.rolled_back_deliveries,
        )
        for label, protocol, recovery in FAMILIES
    }
    nb = measured["fbl(f=2)+nonblocking"][0]
    blk = measured["fbl(f=2)+blocking"][0]
    pes = measured["pessimistic"][0]
    coord, coord_lost = measured["coordinated"]
    assert nb.total_blocked_time == 0.0
    assert blk.mean_blocked_time(exclude=[VICTIM]) > 0.005
    assert _sync_stall(pes) > 1.0
    assert pes.recovery_messages() < blk.recovery_messages()
    assert measured["optimistic"][0].orphan_rollbacks >= 1
    assert nb.orphan_rollbacks == 0
    assert coord_lost > 0
    assert coord.mean_blocked_time(exclude=[VICTIM]) > 0.1
    return (
        ["stack", "recovery (s)", "live blocked (ms)", "ctl msgs",
         "sync stall (s)", "orphans", "lost deliveries"],
        [
            [label, f"{max(result.recovery_durations()):.2f}",
             f"{result.mean_blocked_time(exclude=[VICTIM]) * 1000:.0f}",
             result.recovery_messages(), f"{_sync_stall(result):.2f}",
             result.orphan_rollbacks, lost]
            for label, (result, lost) in measured.items()
        ],
    )


# ----------------------------------------------------------------------
# E8 -- ablations of the new algorithm's design
# ----------------------------------------------------------------------
@table("E8a")
def e8a_gather_restart() -> Table:
    """A pre-reply crash invalidates the one reply owed and, on the
    rejoin, asks again wherever it asked before it; a post-reply crash
    needs neither.  No gather restarts, and nobody blocks."""
    single, after_reply, before_reply = run([
        single_failure(),
        paper_config(
            "e8-after-reply",
            crashes=[crash_at(P, 0.05),
                     crash_on(Q, "recovery", "depinfo_request_received",
                              match_node=Q)],
        ),
        failure_during_recovery(),
    ])
    assert _restarts(before_reply) == 0
    assert _invalidations(before_reply) >= 1
    assert _restarts(after_reply) == 0
    assert before_reply.recovery_messages() > single.recovery_messages()
    assert before_reply.total_blocked_time == 0.0
    return (
        ["scenario", "ctl msgs", "gather restarts", "replies invalidated",
         "longest recovery (s)", "blocked (s)"],
        [
            [label, result.recovery_messages(), _restarts(result),
             _invalidations(result), f"{max(result.recovery_durations()):.2f}",
             f"{result.total_blocked_time:.3f}"]
            for label, result in (
                ("single failure", single),
                ("2nd crash after replying", after_reply),
                ("2nd crash before replying", before_reply),
            )
        ],
    )


@table("E8b")
def e8b_leader_failover() -> Table:
    """The leader dies at election; the next ordinal takes over and
    every recovery completes without blocking."""
    (result,) = run([leader_failure()])
    leaders = {e.node for e in result.episodes if e.was_leader}
    assert len(result.recovery_durations()) >= 2
    assert len(leaders) >= 2
    assert result.total_blocked_time == 0.0
    return (
        ["episodes", "completed", "distinct leaders", "blocked (s)"],
        [[len(result.episodes), len(result.recovery_durations()), len(leaders),
          f"{result.total_blocked_time:.3f}"]],
    )


DETECTION_DELAYS = [0.5, 1.5, 3.0, 6.0]


@table("E8c")
def e8c_detection_delay() -> Table:
    """Recovery time tracks the detection delay one for one: the rest
    is restore plus milliseconds of algorithm."""
    results = run([
        single_failure(detection_delay=delay) for delay in DETECTION_DELAYS
    ])
    durations = [result.recovery_durations()[0] for result in results]
    residuals = [d - delay for d, delay in zip(durations, DETECTION_DELAYS)]
    assert max(residuals) - min(residuals) < 0.1
    return (
        ["detection delay (s)", "recovery (s)", "recovery minus detection (s)"],
        [
            [f"{delay:.1f}", f"{d:.2f}", f"{d - delay:.3f}"]
            for delay, d in zip(DETECTION_DELAYS, durations)
        ],
    )


# ----------------------------------------------------------------------
# E9 -- output-commit latency (extension)
# ----------------------------------------------------------------------
OUTPUT_STACKS = [
    ("pessimistic", "pessimistic", "local"),
    ("fbl(f=2)", "fbl", "nonblocking"),
    ("sender_based(f=1)", "sender_based", "nonblocking"),
    ("manetho(f=n)", "manetho", "nonblocking"),
    ("optimistic", "optimistic", "optimistic"),
    ("coordinated", "coordinated", "coordinated"),
]


def _outputs(crash: bool = False) -> Dict[str, RunResult]:
    """Every stack with one output per 4 deliveries, optionally crashing
    node 3 at t = 0.1 s; each must commit every output it requested."""

    def pending(system):
        return sum(len(node.protocol._pending_outputs) for node in system.nodes)

    measured = {}
    for label, protocol, recovery in OUTPUT_STACKS:
        result, left = run_system(
            output_commit_scenario(
                protocol, recovery, crashes=[crash_at(node=3, time=0.1)] if crash else None
            ),
            pending,
        )
        assert left == 0, f"{label}: {left} outputs never committed"
        measured[label] = result
    return measured


@table("E9")
def e9_output_commit() -> Table:
    """The folklore ordering of output-commit latency, produced by the
    protocols' machinery: pessimistic pays nothing, FBL one acknowledged
    determinant push, the rest a stable write or a snapshot round."""
    measured = _outputs()
    p50 = {label: summarize(r.output_latencies()).p50 for label, r in measured.items()}
    assert p50["pessimistic"] == 0.0
    assert p50["fbl(f=2)"] < 0.01
    assert p50["fbl(f=2)"] < p50["manetho(f=n)"]
    assert p50["fbl(f=2)"] < p50["optimistic"]
    assert p50["fbl(f=2)"] < p50["coordinated"]
    rows = []
    for label, result in measured.items():
        stats = summarize(result.output_latencies())
        rows.append([label, result.outputs_committed, f"{stats.p50 * 1000:.2f}",
                     f"{stats.p95 * 1000:.2f}", f"{stats.maximum * 1000:.1f}"])
    return ["stack", "outputs", "p50 (ms)", "p95 (ms)", "max (ms)"], rows


@table("E9b")
def e9b_output_exactly_once() -> Table:
    """Across one crash every stack still releases each output exactly
    once, never from a state that is later rolled back."""
    measured = _outputs(crash=True)
    return (
        ["stack", "outputs committed", "replay duplicates filtered", "consistent"],
        [
            [label, result.outputs_committed, result.output_duplicates_filtered,
             "yes" if result.consistent else "NO"]
            for label, result in measured.items()
        ],
    )


# ----------------------------------------------------------------------
# E10 -- garbage collection (extension)
# ----------------------------------------------------------------------
def _long_run(protocol, recovery, checkpoint_every, crashes=()) -> SystemConfig:
    return paper_config(
        f"e10-{protocol}-{checkpoint_every}", protocol=protocol, recovery=recovery,
        checkpoint_every=checkpoint_every, crashes=list(crashes), hops=80,
    )


@table("E10a")
def e10a_volatile_logs() -> Table:
    """Periodic checkpoints let FBL prune its send log and the
    determinants it holds."""

    def totals(system):
        return (sum(len(n.protocol.send_log) for n in system.nodes),
                sum(len(n.protocol.det_log) for n in system.nodes))

    _, (send_no, dets_no) = run_system(
        build_system(_long_run("fbl", "nonblocking", 0)), totals)
    _, (send_gc, dets_gc) = run_system(
        build_system(_long_run("fbl", "nonblocking", 8)), totals)
    assert send_gc < send_no
    assert dets_gc < dets_no
    return (
        ["configuration", "send-log entries", "determinants held"],
        [["no periodic checkpoints", send_no, dets_no],
         ["checkpoint every 8 deliveries + GC", send_gc, dets_gc]],
    )


@table("E10b")
def e10b_stable_log() -> Table:
    """Checkpoints let pessimistic logging compact its stable log."""

    def retained(system):
        return sum(n.storage.log_len(f"msglog:{n.node_id}") for n in system.nodes)

    _, len_no = run_system(build_system(_long_run("pessimistic", "local", 0)), retained)
    _, len_gc = run_system(build_system(_long_run("pessimistic", "local", 8)), retained)
    assert len_gc < len_no
    return (
        ["configuration", "stable log entries"],
        [["no GC", len_no], ["checkpoint every 8 + compaction", len_gc]],
    )


#: past node 3's first durable periodic checkpoint: its 1 MB images
#: queue on one disk at ~1.02 s each, so a crash at t = 0.25 s would
#: find only the initial checkpoint durable under either configuration
E10C_CRASH = 6.0


@table("E10c")
def e10c_replay_length() -> Table:
    """Durable periodic checkpoints shorten the replay after a crash."""
    without, with_gc = run([
        _long_run("fbl", "nonblocking", every, crashes=[crash_at(node=3, time=E10C_CRASH)])
        for every in (0, 8)
    ])
    replay_no = without.episodes[0].replayed_deliveries
    replay_gc = with_gc.episodes[0].replayed_deliveries
    assert replay_gc < replay_no
    return (
        ["configuration", "deliveries replayed", "recovery (s)"],
        [["checkpoint at start only", replay_no, f"{without.recovery_durations()[0]:.2f}"],
         ["checkpoint every 8", replay_gc, f"{with_gc.recovery_durations()[0]:.2f}"]],
    )


# ----------------------------------------------------------------------
# E11 -- recovery under message loss (extension)
# ----------------------------------------------------------------------
LOSS_RATES = [0.0, 0.02, 0.05, 0.1, 0.2]


def e11_configs() -> List[SystemConfig]:
    """One crash at each loss rate, blocking then non-blocking.  At 20 %
    loss a round trip fails ~36 % of the time; 30 retries keep a
    spurious channel reset out of the picture."""
    configs = []
    for loss in LOSS_RATES:
        for recovery in ("blocking", "nonblocking"):
            with closing(lossy_network(recovery=recovery, loss=loss, victim=VICTIM,
                                       transport_params={"max_retries": 30})) as system:
                configs.append(system.config)
    return configs


@table("E11")
def e11_lossy_network() -> Table:
    """The reliable transport's bill grows with the loss rate; both
    recoveries complete, and the new algorithm still blocks nobody."""
    results = run(e11_configs())
    pairs = list(zip(results[::2], results[1::2]))
    assert all(blk.recovery_durations() and nb.recovery_durations() for blk, nb in pairs)
    clean = pairs[0][1]
    assert clean.retransmissions() == 0
    assert clean.transport_messages() > 0
    retransmits = [nb.retransmissions() for _, nb in pairs]
    assert all(a <= b for a, b in zip(retransmits, retransmits[1:]))
    assert retransmits[-1] > 0
    worst_blocking, worst_nonblocking = pairs[-1]
    assert worst_nonblocking.total_blocked_time == 0.0
    assert worst_blocking.mean_blocked_time(exclude=[VICTIM]) > 0
    return (
        ["loss", "blk recovery (s)", "nb recovery (s)", "blk ctl msgs",
         "nb ctl msgs", "nb retransmits", "nb reliability overhead (KB)"],
        [
            [f"{loss * 100:g}%", f"{blocking.recovery_durations()[0]:.2f}",
             f"{nonblocking.recovery_durations()[0]:.2f}",
             blocking.recovery_messages(), nonblocking.recovery_messages(),
             nonblocking.retransmissions(),
             f"{nonblocking.reliability_overhead_bytes() / 1000:.1f}"]
            for loss, (blocking, nonblocking) in zip(LOSS_RATES, pairs)
        ],
    )


# ----------------------------------------------------------------------
# E12 -- storage realism (extension)
# ----------------------------------------------------------------------
CHECKPOINT_EVERY = 8

#: the five log- and checkpoint-based families, each checkpointing every
#: 8 deliveries
LOGGING_STACKS = [
    ("fbl", "nonblocking"),
    ("sender_based", "nonblocking"),
    ("manetho", "nonblocking"),
    ("pessimistic", "local"),
    ("optimistic", "optimistic"),
]


def _realism(dirty_bytes=65_536, batch_window=0.005) -> StorageRealismConfig:
    return StorageRealismConfig(
        incremental_checkpoints=True,
        dirty_bytes_per_delivery=dirty_bytes,
        group_commit=True,
        batch_window=batch_window,
        log_compaction=True,
    )


def _storage_run(protocol, recovery, name, realism=None, **overrides) -> SystemConfig:
    overrides.setdefault("checkpoint_every", CHECKPOINT_EVERY)
    return paper_config(
        name, protocol=protocol, recovery=recovery,
        crashes=[crash_at(node=2, time=0.05)], storage_realism=realism,
        sanitize=True, **overrides,
    )


def _storage_totals(result):
    ops = result.storage_ops.values()
    return (sum(o["busy_time"] for o in ops), sum(o["bytes_written"] for o in ops),
            sum(o["bytes_reclaimed"] for o in ops))


def _sanitized(results: Sequence[RunResult]) -> None:
    for result in results:
        assert result.extra["sanitizer"]["clean"], f"{result.config_name}: sanitizer"


@table("E12a")
def e12a_flat_vs_realistic() -> Table:
    """At equal checkpoint intervals the realistic storage model
    (incremental checkpoints, group commit, compaction) costs every
    family less device time, with oracle and sanitizer green."""
    results = run([
        _storage_run(protocol, recovery, f"e12-{protocol}-{arm}", realism=realism)
        for protocol, recovery in LOGGING_STACKS
        for arm, realism in (("flat", None), ("real", _realism()))
    ])
    _sanitized(results)
    rows = []
    for (protocol, recovery), flat, real in zip(LOGGING_STACKS, results[::2], results[1::2]):
        flat_busy, flat_written, _ = _storage_totals(flat)
        real_busy, real_written, reclaimed = _storage_totals(real)
        assert real_busy < flat_busy, f"{protocol}: realism saves no device time"
        rows.append([
            f"{protocol}+{recovery}", CHECKPOINT_EVERY, f"{flat_busy:.2f}",
            f"{real_busy:.2f}", f"{100 * (1 - real_busy / flat_busy):.0f}%",
            f"{flat_written / 1e6:.1f}", f"{real_written / 1e6:.1f}",
            f"{reclaimed / 1e6:.1f}",
        ])
    return (
        ["stack", "ckpt every", "flat busy (s)", "real busy (s)", "saved",
         "flat MB written", "real MB written", "MB reclaimed"],
        rows,
    )


@table("E12b")
def e12b_knob_sweep() -> Table:
    """Pessimistic logging over checkpoint interval x batch window x
    dirty ratio, every realism knob on."""
    points = [
        (every, window, ratio)
        for every in (4, 8, 16) for window in (0.001, 0.005) for ratio in (0.25, 0.75)
    ]
    results = run([
        _storage_run(
            "pessimistic", "local", f"e12-k{every}-w{window}-d{ratio}",
            realism=_realism(dirty_bytes=int(ratio * 1_000_000 / CHECKPOINT_EVERY),
                             batch_window=window),
            checkpoint_every=every, keep_trace_events=False,
        )
        for every, window, ratio in points
    ])
    _sanitized(results)
    rows = []
    for (every, window, ratio), result in zip(points, results):
        busy, written, reclaimed = _storage_totals(result)
        durations = result.recovery_durations()
        rows.append([
            every, f"{window * 1000:.0f}", f"{ratio:.2f}", f"{busy:.2f}",
            f"{written / 1e6:.1f}", f"{reclaimed / 1e6:.1f}",
            f"{max(durations):.2f}" if durations else "-",
        ])
    return (
        ["ckpt every", "window (ms)", "dirty ratio", "busy (s)", "MB written",
         "MB reclaimed", "recovery (s)"],
        rows,
    )


@table("E12c")
def e12c_chain_bound() -> Table:
    """Periodic fulls bound the delta chain a restart must read back."""
    (result,) = run([_storage_run("pessimistic", "local", "e12-chain",
                                  realism=_realism(dirty_bytes=32_768))])
    _sanitized([result])
    chains = [ops["chain_length"] for ops in result.storage_ops.values()]
    full_every = _realism().full_checkpoint_every
    assert all(1 <= length <= full_every for length in chains), chains
    return (
        ["metric", "value"],
        [
            ["full segments written",
             sum(ops["full_segments"] for ops in result.storage_ops.values())],
            ["delta segments written",
             sum(ops["delta_segments"] for ops in result.storage_ops.values())],
            ["longest live chain", max(chains)],
            ["bound (full_checkpoint_every)", full_every],
        ],
    )


# ----------------------------------------------------------------------
# E14 -- adaptive hybrid logging (extension)
# ----------------------------------------------------------------------
ADAPTIVE_PARAMS = {"f": 2, "eval_every": 6, "min_dwell": 8, "hysteresis": 1.0}

#: every static stack, plus the adaptive hybrid; coordinated runs with
#: the protocol's own snapshot interval here
SHIFTING_STACKS = [
    ("fbl", "nonblocking", {"f": 2}),
    ("sender_based", "nonblocking", {}),
    ("manetho", "nonblocking", {}),
    ("pessimistic", "local", {}),
    ("optimistic", "optimistic", {}),
    ("coordinated", "coordinated", {}),
    ("adaptive", "nonblocking", ADAPTIVE_PARAMS),
]

#: three regimes: 4 KB all-to-all bursts, a thinned 80-hop steady
#: trickle, then 15-request client-server sessions against node 0
SHIFTING = {
    "bursty_hops": 2,
    "steady_hops": 80,
    "requests": 15,
    "server": 0,
    "seed": 3,
    "steady_one_in": 3,
}

#: a mid-2000s logging stack: delta checkpoints, group commit, fast
#: writes -- the regime where asynchronous determinant records are
#: worth considering at all
SHIFTING_REALISM = StorageRealismConfig(
    incremental_checkpoints=True,
    dirty_bytes_per_delivery=128,
    group_commit=True,
    batch_window=0.0005,
    log_compaction=True,
)


def _shifting(protocol, recovery, params, name, crashes=()) -> SystemConfig:
    return paper_config(
        name, protocol=protocol, protocol_params=dict(params), recovery=recovery,
        n=6, seed=3, workload="shifting", workload_params=dict(SHIFTING),
        checkpoint_every=12, state_bytes=16_384, storage_realism=SHIFTING_REALISM,
        storage_op_latency=0.0005, crashes=list(crashes), sanitize=True,
        cost_ledger=True,
    )


def _green(result: RunResult) -> None:
    sanitizer = result.extra["sanitizer"]
    assert sanitizer["clean"], f"{result.config_name}: {sanitizer['violations'][:3]}"
    assert result.extra["cost"]["conserved"], f"{result.config_name}: ledger leak"


@table("E14a")
def e14a_adaptive_beats_static() -> Table:
    """On the shifting workload the adaptive hybrid, which really
    migrates processes through all three modes, moves fewer end-to-end
    bytes (wire + storage) than every static stack."""
    results = run([
        _shifting(protocol, recovery, params, f"e14-{protocol}")
        for protocol, recovery, params in SHIFTING_STACKS
    ])
    totals = {}
    rows = []
    for (protocol, recovery, _), result in zip(SHIFTING_STACKS, results):
        _green(result)
        wire = result.extra["cost"]["wire"]["total_bytes"]
        storage = result.extra["cost"]["storage"]["total_bytes"]
        totals[protocol] = wire + storage
        rows.append([f"{protocol}+{recovery}", f"{wire / 1e3:.0f}",
                     f"{storage / 1e3:.0f}", f"{(wire + storage) / 1e3:.0f}"])
    adaptive = results[-1]
    switches = adaptive.extra["trace_counters"].get("protocol.mode_switch", 0)
    assert switches >= 3, f"only {switches} mode switches"
    modes_used = {
        mode
        for node_stats in adaptive.extra["protocol_stats"].values()
        for mode, per in node_stats["per_mode"].items()
        if per["deliveries"] > 0
    }
    assert modes_used == {"pessimistic", "fbl", "optimistic"}, modes_used
    for protocol, total in totals.items():
        assert protocol == "adaptive" or totals["adaptive"] < total, protocol
    return ["stack", "wire", "storage", "total"], rows


@table("E14b")
def e14b_crash_in_migration() -> Table:
    """A crash in the thick of the switching traffic restores the
    process's mode from its checkpoint and recovers across the mode
    boundary, sanitizer and ledger green."""
    (result,) = run([_shifting("adaptive", "nonblocking", ADAPTIVE_PARAMS,
                               "e14-adaptive-crash", crashes=[crash_at(node=4, time=0.012)])])
    _green(result)
    counters = result.extra["trace_counters"]
    assert counters.get("protocol.mode_switch", 0) >= 1
    assert counters.get("protocol.mode_restored", 0) >= 1
    return (
        ["stack", "switches", "restores", "consistent", "sanitizer"],
        [["adaptive+nonblocking", counters.get("protocol.mode_switch", 0),
          counters.get("protocol.mode_restored", 0),
          "yes" if result.consistent else "NO",
          "clean" if result.extra["sanitizer"]["clean"] else "DIRTY"]],
    )


# ----------------------------------------------------------------------
# EXPERIMENTS.md blocks
# ----------------------------------------------------------------------
BLOCK = re.compile(r"<!-- table (\S+) -->\n(.*?)<!-- /table -->", re.S)


def render(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A markdown table, one line per row."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def blocks(text: str) -> Dict[str, str]:
    """Every generated block in ``text``, by table name."""
    return {match.group(1): match.group(2) for match in BLOCK.finditer(text)}


def stale(path: Path, name: str, rendered: str) -> Optional[str]:
    """Why table ``name``'s block in ``path`` is not ``rendered``, or
    None when it is."""
    found = blocks(path.read_text(encoding="utf-8")).get(name)
    if found is None:
        return f"table {name}: no '<!-- table {name} -->' ... '<!-- /table -->' block in {path}"
    if found == rendered:
        return None
    diff = "\n".join(difflib.unified_diff(
        found.splitlines(), rendered.splitlines(), "EXPERIMENTS.md", "generated",
        lineterm="",
    ))
    return (f"table {name} in {path} is stale; rerun "
            f"`python benchmarks/paper_tables.py`:\n{diff}")


def rewrite(path: Path, rendered: Dict[str, str]) -> None:
    """Replace each named block in ``path`` with its rendering."""
    text = path.read_text(encoding="utf-8")
    missing = sorted(set(rendered) - set(blocks(text)))
    if missing:
        raise SystemExit(f"{path} has no block for: {', '.join(missing)}")
    path.write_text(BLOCK.sub(
        lambda m: f"<!-- table {m.group(1)} -->\n"
                  f"{rendered.get(m.group(1), m.group(2))}<!-- /table -->",
        text,
    ), encoding="utf-8")


def main() -> int:
    rendered = {}
    for name, fn in TABLES.items():
        rendered[name] = render(*fn())
        print(f"{name}\n{rendered[name]}")
    rewrite(DOC, rendered)
    print(f"rewrote {len(rendered)} tables in {DOC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
