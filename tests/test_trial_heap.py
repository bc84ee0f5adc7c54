"""A finished trial leaves nothing for the cyclic collector, and a live
one holds a bounded heap per delivery.

``run_trial`` closes its :class:`~repro.core.system.System` once the
:class:`TrialResult` exists, which breaks the reference cycles the wired
system is made of; refcounting then frees the whole trial the moment
the last reference goes.  Two checks pin that contract:

* *leftover* -- with the collector disabled, a collection under
  ``DEBUG_SAVEALL`` right after ``run_trial`` finds no unreachable
  object (on failure the assertion lists the leftover types);
* *equality* -- closing mutates nothing the result shares: every
  ``TrialResult`` equals what an un-closed ``System(config).run()``
  produces, compared as canonical JSON.

The configs cover every protocol x recovery stack of the ``sweep_fleet``
workload, the fully observed ``observed_run`` trial (trace kept, spans,
sanitizer, ledger, sampler, profiler), a lossy reliable-transport run, the
same cut at a horizon with events still queued, and a storage-realism run
with group commit and compaction.

The third check is a *heap budget*, exact per CPython build like the
call budget in ``test_hot_path_budget.py``: what a finished, not yet
closed trial still holds per delivery -- live bytes under
``tracemalloc`` and net GC-tracked allocations (the
``gc.get_count()[0]`` delta, the collector off) -- on five benchmark
workloads at scale 0.25.  Both repeat run to run.

    PYTHONPATH=src python tests/test_trial_heap.py   # the table, as markdown

The script also lists each workload's largest live allocation sites
(tracemalloc ``lineno``), so a budget failure in CI names its line
without a local re-run.
"""

import gc
import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import asdict
from pathlib import PurePath

import pytest

from repro.core.config import FaultConfig, StorageRealismConfig
from repro.core.system import System, run_config
from repro.procs.failure import crash_at
from repro.runner import TrialSpec, run_trial

from helpers import e2e_workloads, small_config


def _specs():
    workloads = e2e_workloads()
    # one n=4 trial per protocol x recovery stack
    fleet = [s for s in workloads["sweep_fleet"].specs(1000, 0.1) if "-n4-" in s.label]
    (observed,) = workloads["observed_run"].specs(1000, 0.1)
    lossy = small_config(
        crashes=[crash_at(node=2, time=0.05)], transport="reliable",
        transport_params={"max_retries": 30}, faults=FaultConfig(loss_prob=0.2),
    )
    # cut at a horizon: events still queued, retransmission timers armed
    horizon = small_config(
        crashes=[crash_at(node=2, time=0.05)], hops=200, run_until=0.06,
        transport="reliable", faults=FaultConfig(loss_prob=0.2),
    )
    storage = small_config(
        protocol="pessimistic", recovery="local", crashes=[crash_at(node=2, time=0.05)],
        checkpoint_every=3, storage_realism=StorageRealismConfig(
            incremental_checkpoints=True, group_commit=True, log_compaction=True,
        ),
    )
    return fleet + [
        observed,
        TrialSpec(lossy, label="lossy-transport"),
        TrialSpec(horizon, label="horizon-cut"),
        TrialSpec(storage, label="storage-realism"),
    ]


SPECS = _specs()


def _plain(value):
    """``value`` with every dict key as its repr (JSON wants string keys)."""
    if isinstance(value, dict):
        return {repr(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _canonical(value) -> str:
    return json.dumps(_plain(value), sort_keys=True, default=repr)


def _comparable(summary, metrics, trace_counters, cost):
    """Everything a trial computed, minus the host timings the profiler adds."""
    summary = asdict(summary)
    profile = summary["extra"].pop("profile", None)
    if profile is not None:
        summary["extra"]["profile_events"] = (profile["events_fired"], profile["heap_high_water"])
    return [_canonical(part) for part in (summary, metrics, trace_counters, cost)]


@pytest.mark.parametrize("spec", SPECS, ids=[spec.label for spec in SPECS])
def test_finished_trial_leaves_nothing_for_the_collector(spec):
    # a first run pays the lazy imports, whose garbage is not the trial's
    # (a ``dataclass(slots=True)`` leaves the class it replaced behind)
    run_trial(spec)
    gc.collect()
    gc.disable()
    try:
        result = run_trial(spec)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        leftover = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert result.summary.consistent
    assert found == 0, f"{found} objects left for the collector: {leftover.most_common(12)}"


@pytest.mark.parametrize("spec", SPECS, ids=[spec.label for spec in SPECS])
def test_closing_changes_no_result(spec):
    trial = run_trial(spec)
    system = System(spec.materialize())
    summary = system.run()
    unclosed = _comparable(
        summary,
        system.registry.dump(),
        dict(system.trace.counters),
        system.cost.dump() if system.cost is not None else None,
    )
    closed = _comparable(trial.summary, trial.metrics, trial.trace_counters, trial.cost)
    assert closed == unclosed


# ----------------------------------------------------------------------
# heap budget per delivery
# ----------------------------------------------------------------------
#: (live bytes, net GC-tracked allocations) per delivery this code base
#: reaches (CPython 3.11); the budget is each + 5 %.  The parent of the
#: change that recorded each delivery once read 1,974 B / 15.24,
#: 2,092 B / 16.88 and 3,068 B / 23.56; the parent of the change that
#: made the volatile logs rows read 1,184 B / 5.59, 1,366 B / 7.68 and
#: 2,603 B / 18.41.  ``observed_run`` keeps its trace: the parent of the
#: change that made a kept event its emitter's names and values tuple
#: (no details dict) read 3,693 B / 27.10 there, and the parent of the
#: change that keeps the trace as columns (one flat row per stream, no
#: event object per kept record) read 3,053 B / 27.51.  The parent of
#: the change that made a determinant one object from delivery to replay
#: (depinfo replies, distributions, pushes, acks and stable-log records
#: carry the log's own ``Determinant``, no tuple copy) read 1,064 B / 5.78
#: on ``lossy_transport``, 2,183 B / 17.40 on ``recovery_churn``, 2,404 B /
#: 15.02 on ``observed_run`` and 1,904 B / 14.16 on ``sweep_fleet``, the
#: one workload that runs every stack's stable log and both gathers.  The
#: parent of the change that packed what a run keeps for its whole life
#: (a logged payload is its encoded image, the oracle's digests one
#: ``bytearray`` per receiver) read 798 B / 3.82 on ``steady_fbl``, 997 B /
#: 4.89 on ``lossy_transport``, 1,845 B / 12.91 on ``recovery_churn``,
#: 2,127 B / 11.29 on ``observed_run`` and 1,757 B / 12.17 on
#: ``sweep_fleet``.
HEAP_REACHED = {
    "steady_fbl": (634, 2.82),
    "lossy_transport": (841, 3.92),
    "recovery_churn": (1709, 12.06),
    "observed_run": (1980, 10.40),
    "sweep_fleet": (1654, 11.37),
}
HEAP_BUDGET = {
    workload: (live * 1.05, tracked * 1.05)
    for workload, (live, tracked) in HEAP_REACHED.items()
}


def heap_per_delivery(workload: str, seed: int = 1000, scale: float = 0.25, sites=None):
    """``(live bytes, GC-tracked allocations, deliveries)`` per delivery
    over one rep of ``workload``, each trial read when its run ends.

    With a ``sites`` Counter, also adds up each source line's live bytes
    at that point (tracemalloc ``lineno`` statistics), keyed
    ``file:line``."""
    specs = e2e_workloads()[workload].specs
    # warm imports and caches with one trial of every protocol x recovery
    # stack the workload runs: none is first imported while measured
    warm = {}
    for spec in specs(seed, 0.05):
        config = spec.materialize()
        warm.setdefault((config.protocol, config.recovery), config)
    for config in warm.values():
        run_config(config)
    live = tracked = deliveries = 0
    for spec in specs(seed, scale):
        config = spec.materialize()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            bytes0, count0 = tracemalloc.get_traced_memory()[0], gc.get_count()[0]
            system = System(config)
            result = system.run()
            live += tracemalloc.get_traced_memory()[0] - bytes0
            tracked += gc.get_count()[0] - count0
            if sites is not None:
                for stat in tracemalloc.take_snapshot().statistics("lineno"):
                    frame = stat.traceback[0]
                    sites[f"{_short(frame.filename)}:{frame.lineno}"] += stat.size
            system.close()
        finally:
            tracemalloc.stop()
            gc.enable()
        deliveries += result.total_deliveries
    return live / deliveries, tracked / deliveries, deliveries


@pytest.mark.parametrize("workload", sorted(HEAP_BUDGET))
def test_heap_per_delivery_stays_in_budget(workload):
    live, tracked, deliveries = heap_per_delivery(workload)
    live_budget, tracked_budget = HEAP_BUDGET[workload]
    assert live <= live_budget and tracked <= tracked_budget, (
        f"{workload}: a trial holds {live:.0f} B and {tracked:.2f} GC-tracked "
        f"allocations per delivery ({deliveries} deliveries), budget "
        f"{live_budget:.0f} B / {tracked_budget:.2f}. Something now keeps more per "
        f"delivery; `python tests/test_trial_heap.py` lists the largest live "
        f"allocation sites (tracemalloc lineno), and CI's job summary holds them."
    )


def _short(filename: str) -> str:
    """``filename`` from its last ``repro`` directory on, else its last two
    parts."""
    parts = PurePath(filename).parts
    start = len(parts) - 1 - parts[::-1].index("repro") if "repro" in parts else -2
    return "/".join(parts[start:])


#: allocation sites listed per workload under the table
TOP_SITES = 5


def main() -> int:
    """Print the workloads' figures against their budgets, then each
    workload's largest live allocation sites (markdown)."""
    print("| workload | live B per delivery | budget | GC-tracked allocations "
          "per delivery | budget |")
    print("|---|---|---|---|---|")
    over = 0
    top = {}
    for workload in sorted(HEAP_BUDGET):
        sites = Counter()
        live, tracked, deliveries = heap_per_delivery(workload, sites=sites)
        top[workload] = (sites.most_common(TOP_SITES), deliveries)
        live_budget, tracked_budget = HEAP_BUDGET[workload]
        over += live > live_budget or tracked > tracked_budget
        print(f"| `{workload}` | {live:.0f} ({deliveries} deliveries) | {live_budget:.0f} "
              f"| {tracked:.2f} | {tracked_budget:.2f} |")
    print()
    print(f"The {TOP_SITES} largest live allocation sites per workload "
          "(tracemalloc `lineno`, summed over the rep's trials):")
    print()
    print("| workload | site | live KiB | B per delivery |")
    print("|---|---|---|---|")
    for workload, (sites, deliveries) in top.items():
        for site, size in sites:
            print(f"| `{workload}` | `{site}` | {size / 1024:.1f} | {size / deliveries:.0f} |")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
