"""E8 -- ablations of the new algorithm's design choices.

Three knobs the paper's design fixes, measured here:

* **restart-on-concurrent-failure** (the goto 4): what a gather restart
  costs in extra control messages, versus the crash-after-reply case
  that needs none;
* **leader failover by ordinal**: recovery completes even when the
  leader itself dies mid-algorithm;
* **detection delay**: the dominant term of every recovery duration --
  supporting the claim that the algorithm's own costs are negligible.
"""

import pytest

from repro import crash_at, crash_on, run_config

from paper_setup import emit, once, paper_config

P, Q = 3, 5


def _config(crashes, name, detection_delay=3.0, recovery="nonblocking"):
    return paper_config(
        f"e8-{name}", recovery=recovery, crashes=crashes,
        detection_delay=detection_delay,
    )


def run(crashes, name, detection_delay=3.0):
    result = run_config(_config(crashes, name, detection_delay))
    assert result.consistent
    return result


def _run_batch(configs):
    from repro.runner import run_results

    results = run_results(configs)
    for result in results:
        assert result.consistent
    return results


@pytest.mark.benchmark(group="exp8")
def test_exp8_gather_restart_cost(benchmark):
    def before_reply_crashes():
        return [
            crash_at(P, 0.05),
            crash_on(Q, "net", "deliver", match_node=Q,
                     match_details={"mtype": "depinfo_request"},
                     immediate=True),
        ]

    single, after_reply, before_restart = _run_batch([
        _config([crash_at(P, 0.05)], "single"),
        _config(
            [crash_at(P, 0.05),
             crash_on(Q, "recovery", "depinfo_request_received", match_node=Q)],
            "after-reply",
        ),
        # the paper's literal goto 4, pinned by the legacy restart manager
        _config(before_reply_crashes(), "before-reply-restart",
                recovery="nonblocking-restart"),
    ])
    before_reply = once(benchmark, lambda: run(
        before_reply_crashes(), "before-reply",
    ))

    rows = []
    for label, result in (
        ("single failure", single),
        ("2nd crash after replying", after_reply),
        ("2nd crash before replying (resume)", before_reply),
        ("2nd crash before replying (goto 4)", before_restart),
    ):
        rows.append([
            label,
            result.recovery_messages(),
            sum(e.gather_restarts for e in result.episodes),
            sum(e.reply_invalidations for e in result.episodes),
            f"{max(result.recovery_durations()):.2f}",
            f"{result.total_blocked_time:.3f}",
        ])
    emit(
        "E8a cost of the goto-4 restart (legacy) vs the resumed round",
        ["scenario", "ctl msgs", "gather restarts", "replies invalidated",
         "longest recovery (s)", "blocked (s)"],
        rows,
    )

    # the legacy manager executes the paper's goto 4; the resumable one
    # just invalidates the reply the dead process owed
    assert sum(e.gather_restarts for e in before_restart.episodes) >= 1
    assert sum(e.gather_restarts for e in before_reply.episodes) == 0
    assert sum(e.reply_invalidations for e in before_reply.episodes) >= 1
    assert sum(e.gather_restarts for e in after_reply.episodes) == 0
    # the restart re-requests the round: strictly more control traffic
    assert before_restart.recovery_messages() > before_reply.recovery_messages()
    # the concurrent failure costs extra messages but blocks nobody
    assert before_reply.recovery_messages() > single.recovery_messages()
    assert before_reply.total_blocked_time == 0.0
    assert before_restart.total_blocked_time == 0.0


@pytest.mark.benchmark(group="exp8")
def test_exp8_leader_failover(benchmark):
    result = once(benchmark, lambda: run(
        [crash_at(P, 0.05), crash_at(Q, 0.06),
         crash_on(P, "recovery", "leader_elected", match_node=P, immediate=True)],
        "leader-crash",
    ))
    leaders = [e.node for e in result.episodes if e.was_leader]
    emit(
        "E8b leader failover by ordinal number",
        ["episodes", "completed", "distinct leaders", "blocked (s)"],
        [[len(result.episodes), len(result.recovery_durations()),
          len(set(leaders)), f"{result.total_blocked_time:.3f}"]],
    )
    assert len(result.recovery_durations()) >= 2
    assert len(set(leaders)) >= 2  # the next ordinal took over
    assert result.total_blocked_time == 0.0


@pytest.mark.benchmark(group="exp8")
def test_exp8_detection_delay_dominates(benchmark):
    delays = [0.5, 1.5, 3.0, 6.0]
    rows = []
    durations = []
    results = _run_batch([
        _config([crash_at(P, 0.05)], f"detect-{delay}", detection_delay=delay)
        for delay in delays
    ])
    for delay, result in zip(delays, results):
        total = result.recovery_durations()[0]
        durations.append(total)
        rows.append([
            f"{delay:.1f}",
            f"{total:.2f}",
            f"{total - delay:.3f}",
        ])
    once(benchmark, lambda: run([crash_at(P, 0.05)], "detect-timed",
                                detection_delay=0.5))
    emit(
        "E8c recovery duration vs detection delay (everything else ~constant)",
        ["detection delay (s)", "recovery (s)", "recovery minus detection (s)"],
        rows,
    )
    # recovery time tracks the detection delay one-for-one
    residuals = [d - delay for d, delay in zip(durations, delays)]
    assert max(residuals) - min(residuals) < 0.1
