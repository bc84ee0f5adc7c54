"""E5 -- scalability of the argument in system size.

Section 2.2: "Clearly, the situation would worsen in a larger system
where a few simultaneous failures may occur."  Sweeping n shows:

* under the blocking baseline, the *aggregate* blocked time grows with
  n (every live process stalls),
* under the new algorithm it stays zero at every n,
* both algorithms' recovery-control message counts grow linearly in n,
  with the new algorithm paying a constant-factor premium.
"""

import pytest

from repro import crash_at, run_config

from paper_setup import emit, once, paper_config

SIZES = [4, 8, 16, 32]
VICTIM = 1


def _config(recovery: str, n: int):
    # the sweep only reads aggregates: counters-only traces keep memory
    # flat as n grows, and the kernel profiler feeds the host-cost columns
    return paper_config(
        f"e5-{recovery}-{n}", recovery=recovery, n=n,
        crashes=[crash_at(node=VICTIM, time=0.05)],
        hops=30,
        keep_trace_events=False,
        profile=True,
    )


def run(recovery: str, n: int):
    result = run_config(_config(recovery, n))
    assert result.consistent
    return result


def run_grid():
    """Every (recovery, n) point through the parallel trial runner
    (worker count from ``REPRO_JOBS``; identical results at any count)."""
    from repro.runner import run_results

    points = [(recovery, n) for n in SIZES for recovery in ("blocking", "nonblocking")]
    results = run_results([_config(recovery, n) for recovery, n in points])
    grid = {}
    for point, result in zip(points, results):
        assert result.consistent
        grid[point] = result
    return grid


@pytest.mark.benchmark(group="exp5")
def test_exp5_scalability(benchmark):
    grid = run_grid()
    rows = []
    totals_blocking = []
    messages = {"blocking": [], "nonblocking": []}
    for n in SIZES:
        blocking = grid[("blocking", n)]
        nonblocking = grid[("nonblocking", n)]
        totals_blocking.append(blocking.total_blocked_time)
        messages["blocking"].append(blocking.recovery_messages())
        messages["nonblocking"].append(nonblocking.recovery_messages())
        profile = nonblocking.extra["profile"]
        rows.append([
            n,
            f"{blocking.total_blocked_time:.3f}",
            f"{nonblocking.total_blocked_time:.3f}",
            blocking.recovery_messages(),
            nonblocking.recovery_messages(),
            f"{profile['events_per_sec']:.0f}",
            f"{profile['peak_rss_kb'] / 1024:.1f}",
        ])
    once(benchmark, lambda: run("nonblocking", 8))
    emit(
        "E5 one failure at increasing system size",
        ["n", "blk total blocked (s)", "nb total blocked (s)",
         "blk recovery msgs", "nb recovery msgs",
         "nb events/s (host)", "peak RSS (MB)"],
        rows,
    )

    # aggregate intrusion grows with n under blocking...
    assert totals_blocking[0] < totals_blocking[-1]
    # ...and is identically zero under the new algorithm
    for n in SIZES:
        pass  # asserted per-run below
    # message counts grow roughly linearly (ratio n stays bounded)
    for series in messages.values():
        growth = series[-1] / series[0]
        size_growth = SIZES[-1] / SIZES[0]
        assert growth < 2 * size_growth
    # the premium of the new algorithm exists at every size
    for blk, nb in zip(messages["blocking"], messages["nonblocking"]):
        assert nb > blk


@pytest.mark.benchmark(group="exp5")
def test_exp5_nonblocking_zero_at_every_size(benchmark):
    from repro.runner import run_results

    results = run_results([_config("nonblocking", n) for n in SIZES])
    once(benchmark, lambda: run("nonblocking", SIZES[0]))
    for n, result in zip(SIZES, results):
        assert result.consistent
        assert result.total_blocked_time == 0.0, f"n={n} blocked"
