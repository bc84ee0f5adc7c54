"""A finished trial leaves nothing for the cyclic collector.

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
"""

import gc
import json
from collections import Counter
from dataclasses import asdict

import pytest

from repro.core.config import FaultConfig, StorageRealismConfig
from repro.core.system import System
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
