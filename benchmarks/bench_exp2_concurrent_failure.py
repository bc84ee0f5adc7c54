"""E2 -- the paper's second experiment: a failure during recovery.

Paper (Section 5): "a process failed during the execution of the
recovery of another process that failed earlier.  Under the two
algorithms, the two recovering processes required essentially about five
seconds to recover.  Most of this time was spent in failure detection
and in restoring the state of the second process.  The blocking
algorithm required each live process to block for the same amount of
time, while the new algorithm did not require such blocking.  The extra
communication overhead required by the second phase of the new algorithm
was negligible (about milliseconds)."
"""

import pytest

from repro import build_system, crash_at, crash_on, run_config

from paper_setup import emit, once, paper_config

P, Q = 3, 5  # the first and second processes to fail


def run(recovery: str):
    trigger = "depinfo_request" if recovery == "nonblocking" else "recovery_request"
    config = paper_config(
        f"e2-{recovery}", recovery=recovery,
        crashes=[
            crash_at(node=P, time=0.05),
            # q dies the instant the first recovery's request reaches it,
            # before it can reply -- the paper's exact scenario
            crash_on(Q, "net", "deliver", match_node=Q,
                     match_details={"mtype": trigger}, immediate=True),
        ],
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent
    return result


@pytest.mark.benchmark(group="exp2")
def test_exp2_failure_during_recovery(benchmark):
    blocking = run("blocking")
    nonblocking = once(benchmark, lambda: run("nonblocking"))

    live = [i for i in range(8) if i not in (P, Q)]
    rows = []
    for label, result in (("blocking", blocking), ("nonblocking (new)", nonblocking)):
        durations = sorted(result.recovery_durations(), reverse=True)
        blocked = result.mean_blocked_time(exclude=[P, Q])
        restarts = sum(e.gather_restarts for e in result.episodes)
        invalidations = sum(e.reply_invalidations for e in result.episodes)
        rows.append([
            label,
            f"{durations[0]:.2f}",
            f"{durations[1]:.2f}",
            f"{blocked:.3f}",
            result.recovery_messages(),
            restarts,
            invalidations,
        ])
    emit(
        "E2 failure during recovery (paper: ~5 s to recover; blocking stalls "
        "live processes the same ~5 s; new algorithm stalls none)",
        ["algorithm", "p total (s)", "q total (s)", "live blocked (s)",
         "recovery msgs", "gather restarts", "replies invalidated"],
        rows,
    )

    # recovery of the second process dominated by detection + restore
    q_nb = min(nonblocking.recovery_durations())
    q_blk = min(blocking.recovery_durations())
    assert q_nb > 3.0 and q_blk > 3.0  # seconds, as in the paper
    # blocking stalls live processes on the same seconds scale...
    assert blocking.mean_blocked_time(exclude=[P, Q]) > 3.0
    # ...while the new algorithm stalls nobody
    assert nonblocking.total_blocked_time == 0.0
    # q's failure mid-round no longer voids the gather (the paper's
    # goto 4): only the reply q owed is invalidated, the round survives
    assert sum(e.gather_restarts for e in nonblocking.episodes) == 0
    assert sum(e.reply_invalidations for e in nonblocking.episodes) >= 1
    # both recovering processes finished under both algorithms
    assert len(blocking.recovery_durations()) == 2
    assert len(nonblocking.recovery_durations()) == 2


@pytest.mark.benchmark(group="exp2")
def test_exp2_extra_communication_is_negligible(benchmark):
    """The extra second-phase messages cost milliseconds of latency."""
    nonblocking = once(benchmark, lambda: run("nonblocking"))
    blocking = run("blocking")
    extra_messages = nonblocking.recovery_messages() - blocking.recovery_messages()
    extra_bytes = nonblocking.recovery_bytes() - blocking.recovery_bytes()
    # at 155 Mb/s with sub-ms per-message costs, this is milliseconds
    wire_seconds = extra_bytes * 8 / 155e6 + extra_messages * 350e-6
    emit(
        "E2 extra communication of the new algorithm",
        ["extra msgs", "extra bytes", "approx wire time (ms)"],
        [[extra_messages, extra_bytes, f"{wire_seconds * 1000:.2f}"]],
    )
    assert extra_messages > 0
    assert wire_seconds < 0.1  # "about milliseconds"


# ----------------------------------------------------------------------
# E2 extensions: recovery under churn, old vs new control plane.
# ``nonblocking`` carries the epoch-numbered resumable rounds with
# view-change leader handoff; ``nonblocking-restart`` pins the paper's
# literal restart-everything behaviour for comparison.
# ----------------------------------------------------------------------

def churn_crashes():
    """k = 3 failure events inside one recovery window: p and q crash
    back to back, then the gather leader dies the instant it has
    collected the full round of depinfo replies -- before distributing."""
    return [
        crash_at(node=2, time=0.05),
        crash_at(node=4, time=0.06),
        crash_on(2, "recovery", "depinfo_reply_accepted", match_node=2,
                 occurrence=6, immediate=True),
    ]


@pytest.mark.benchmark(group="exp2")
def test_exp2_leader_crash_handoff_vs_restart(benchmark):
    """A leader crash mid-gather: the successor resumes the persisted
    round (new) or regathers from nothing (old)."""

    def run_pair():
        results = {}
        for recovery in ("nonblocking", "nonblocking-restart"):
            config = paper_config(
                f"e2-churn-{recovery}", recovery=recovery, f=3,
                crashes=churn_crashes(),
            )
            result = run_config(config)
            assert result.consistent
            results[recovery] = result
        return results

    results = once(benchmark, run_pair)
    rows = []
    for label, result in (
        ("handoff (new)", results["nonblocking"]),
        ("restart (old)", results["nonblocking-restart"]),
    ):
        episodes = result.episodes
        rows.append([
            label,
            f"{max(result.recovery_durations()):.2f}",
            sum(e.gather_restarts for e in episodes),
            sum(e.leader_handoffs for e in episodes),
            sum(e.rounds_resumed for e in episodes),
            result.recovery_messages(),
        ])
    emit(
        "E2b leader crash mid-gather (k = 3 failure events): the successor "
        "adopts the dead leader's persisted round instead of regathering",
        ["algorithm", "recovery (s)", "gather restarts", "handoffs",
         "rounds resumed", "recovery msgs"],
        rows,
    )
    new, old = results["nonblocking"], results["nonblocking-restart"]
    # both stacks finish every episode that was not superseded by a
    # re-crash, and the new stack finishes by resuming, not restarting
    assert sum(e.leader_handoffs for e in new.episodes) == 1
    assert sum(e.rounds_resumed for e in new.episodes) == 1
    assert sum(e.leader_handoffs for e in old.episodes) == 0
    assert sum(e.gather_restarts for e in old.episodes) > sum(
        e.gather_restarts for e in new.episodes
    )


@pytest.mark.benchmark(group="exp2")
def test_exp2_partition_during_recovery_starves_restart(benchmark):
    """Cascading failures plus a partition during recovery.

    The same k = 3 crash schedule, plus a partition that isolates one
    live member for ten seconds starting just after the leader collected
    its reply.  On the paper's bare channels the old algorithm starves:
    every restart re-requests the isolated member's depinfo across the
    partition, the request is swallowed, and nothing ever retries -- the
    gather is still empty-handed long after the partition has healed.
    The new algorithm's successor resumes from the persisted round,
    which already holds the isolated member's reply, so every recovering
    process has its depinfo distributed within milliseconds of the
    handoff -- no new message needs to cross the partition at all.
    """
    from repro.procs.failure import partition_at

    def run_pair():
        results = {}
        for recovery in ("nonblocking", "nonblocking-restart"):
            config = paper_config(
                f"e2-partition-{recovery}", recovery=recovery, f=3,
                crashes=churn_crashes(),
                injections=[
                    partition_at([[7], [0, 1, 2, 3, 4, 5, 6, 8]],
                                 4.09, duration=10.0)
                ],
                # the old algorithm never terminates on its own: cap the
                # observation window well past the partition heal
                run_until=30.0,
            )
            results[recovery] = run_config(config)
        return results

    results = once(benchmark, run_pair)
    new, old = results["nonblocking"], results["nonblocking-restart"]

    def latest(result):
        final = {}
        for episode in result.episodes:
            final[episode.node] = episode
        return final.values()

    rows = []
    for label, result in (("handoff (new)", new), ("restart (old)", old)):
        served = sum(
            1 for e in latest(result) if e.replay_start_time is not None
        )
        depinfo_at = [
            round(e.replay_start_time, 2)
            for e in latest(result)
            if e.replay_start_time is not None
        ]
        rows.append([
            label,
            f"{served}/{len(list(latest(result)))}",
            ", ".join(str(t) for t in depinfo_at) or "never",
            sum(e.gather_restarts for e in result.episodes),
            sum(e.leader_handoffs for e in result.episodes),
            result.recovery_messages(),
        ])
    emit(
        "E2c partition during recovery (heals at t=14.1, observed to "
        "t=30): the old algorithm's regather starves on one lost "
        "request; the resumed round needs nothing from the far side",
        ["algorithm", "depinfo served", "served at (s)", "gather restarts",
         "handoffs", "recovery msgs"],
        rows,
    )
    # new: every recovering process got its depinfo via the resumed
    # round, milliseconds after the leader suspicion -- six seconds
    # before the partition even healed
    assert all(e.replay_start_time is not None for e in latest(new))
    assert max(e.replay_start_time for e in latest(new)) < 10.0
    assert sum(e.leader_handoffs for e in new.episodes) == 1
    # old: the gather is still starved sixteen seconds after the heal
    assert all(e.replay_start_time is None for e in latest(old))
    assert not any(e.complete for e in old.episodes)

    # and the starvation is unbounded, not just slow: with no horizon
    # the old algorithm's poll/regather loop runs the kernel dry
    config = paper_config(
        "e2-partition-unbounded", recovery="nonblocking-restart", f=3,
        crashes=churn_crashes(),
        injections=[
            partition_at([[7], [0, 1, 2, 3, 4, 5, 6, 8]], 4.09, duration=10.0)
        ],
        max_events=200_000,
    )
    with pytest.raises(RuntimeError, match="max_events"):
        run_config(config)
