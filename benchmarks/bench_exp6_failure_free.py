"""E6 -- failure-free overhead as a function of f.

Section 2: "applications pay only the overhead that corresponds to the
number of failures they are willing to tolerate."  The failure-free cost
of FBL(f) is the determinant piggybacking needed to reach f + 1 hosts;
it grows with f and vanishes into stable-storage writes at f = n
(Manetho).  Pessimistic logging is the other extreme: its failure-free
cost is a synchronous storage stall per delivery.
"""

import pytest

from repro import run_config
from repro.analysis.cost import overhead_shares
from repro.runner import run_results

from paper_setup import emit, once, paper_config

F_VALUES = [1, 2, 4, 7]


def _fbl_config(f: int, seed: int = 0):
    # the cost ledger attributes every wire byte, so the tables below
    # can report overhead *shares* next to the raw counts
    return paper_config(f"e6-f{f}", f=f, seed=seed, hops=40, cost_ledger=True)


def run_fbl(f: int, seed: int = 0):
    result = run_config(_fbl_config(f, seed))
    assert result.consistent
    return result


def run_named(protocol: str, recovery: str):
    config = paper_config(
        f"e6-{protocol}", protocol=protocol, recovery=recovery, hops=40,
        cost_ledger=True,
    )
    result = run_config(config)
    assert result.consistent
    return result


def _share_columns(result):
    shares = overhead_shares(result.extra["cost"])
    return [
        f"{100 * shares['piggyback-determinant']:.1f}%",
        f"{100 * shares['determinant-log']:.1f}%",
        f"{100 * shares['control-plane']:.1f}%",
    ]


@pytest.mark.benchmark(group="exp6")
def test_exp6_piggyback_grows_with_f(benchmark):
    # the f-sweep is an independent fleet: fan it across the runner
    # (identical tables at any job count)
    results = run_results([_fbl_config(f) for f in F_VALUES])
    rows = []
    piggybacked = []
    for f, result in zip(F_VALUES, results):
        assert result.consistent
        piggybacked.append(result.extra["piggyback_determinants"])
        app_messages = result.network.messages.get("application", 1)
        per_message = piggybacked[-1] / max(1, app_messages)
        rows.append([
            f,
            piggybacked[-1],
            result.extra["piggyback_bytes"],
            f"{per_message:.2f}",
        ] + _share_columns(result))
    once(benchmark, lambda: run_fbl(2, seed=1))
    emit(
        "E6 failure-free piggyback overhead of FBL(f) (n = 8)",
        ["f", "determinants piggybacked", "piggyback bytes", "dets per app msg",
         "piggyback %", "det-log %", "control %"],
        rows,
    )
    # the paper's pay-for-what-you-tolerate property
    assert piggybacked[0] < piggybacked[-1]
    assert all(a <= b * 1.05 for a, b in zip(piggybacked, piggybacked[1:]))
    # the ledger's piggyback share must grow with f as well
    shares = [
        overhead_shares(r.extra["cost"])["piggyback-determinant"]
        for r in results
    ]
    assert shares[0] < shares[-1]


@pytest.mark.benchmark(group="exp6")
def test_exp6_failure_free_cost_landscape(benchmark):
    fbl = run_fbl(2)
    manetho = run_named("manetho", "nonblocking")
    pessimistic = run_named("pessimistic", "local")
    optimistic = run_named("optimistic", "optimistic")
    once(benchmark, lambda: run_fbl(2, seed=2))

    def storage_stall(result):
        return sum(
            ops.get("sync_stall", 0.0) for ops in result.storage_ops.values()
        )

    def storage_writes(result):
        return sum(ops["writes"] for ops in result.storage_ops.values())

    rows = [
        ["fbl(f=2)", fbl.extra["piggyback_determinants"],
         storage_writes(fbl), f"{storage_stall(fbl):.3f}"]
        + _share_columns(fbl),
        ["manetho (f=n)", manetho.extra["piggyback_determinants"],
         storage_writes(manetho), f"{storage_stall(manetho):.3f}"]
        + _share_columns(manetho),
        ["pessimistic", pessimistic.extra["piggyback_determinants"],
         storage_writes(pessimistic), f"{storage_stall(pessimistic):.3f}"]
        + _share_columns(pessimistic),
        ["optimistic", optimistic.extra["piggyback_determinants"],
         storage_writes(optimistic), f"{storage_stall(optimistic):.3f}"]
        + _share_columns(optimistic),
    ]
    emit(
        "E6 failure-free cost landscape (no crashes)",
        ["protocol", "piggybacked dets", "storage writes", "sync stall (s)",
         "piggyback %", "det-log %", "control %"],
        rows,
    )

    # FBL pays zero stable-storage cost when f < n...
    assert storage_stall(fbl) == 0.0
    # ...pessimistic pays a synchronous stall on every delivery...
    assert storage_stall(pessimistic) > 1.0
    # ...manetho writes asynchronously (writes happen, nobody stalls)
    assert storage_writes(manetho) > storage_writes(fbl)
    assert storage_stall(manetho) == 0.0
