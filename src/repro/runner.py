"""Parallel trial execution with proven serial/parallel parity.

The paper's argument is carried by *fleets* of independent trials --
sweeps over n, f, storage latency and loss rate, repeated across seeds
(E1-E11), plus the chaos harness's randomized campaigns.  Each trial is
a sealed deterministic simulation, so the fleet is embarrassingly
parallel; this module fans it across a :class:`ProcessPoolExecutor`
without letting parallelism anywhere near virtual time:

* a :class:`TrialSpec` is pure data (a :class:`SystemConfig` plus an
  optional seed override), picklable and order-stamped;
* every trial runs in its own fresh :class:`System` from a frozen config
  whose plans keep no trigger state, so a spec's result depends only on
  the spec, never on which worker ran it, when, or how often;
* results come back as picklable :class:`TrialResult` records and are
  returned ordered by spec index, regardless of completion order;
* cross-trial aggregation (:func:`merge_metrics`,
  :func:`merge_trace_counters`) folds per-trial registry dumps and trace
  counters in spec order, so merged reports are byte-identical between
  ``jobs=1`` and ``jobs=N``.

``jobs=1`` never touches multiprocessing: the same code path that runs
inside a worker runs inline, which is both the fallback for exotic
platforms and the reference side of the parity tests
(``tests/test_runner_parity.py``).

Dispatch is chunked: specs are split into ``~4 x jobs`` contiguous
slices and each slice runs on one (warm, reused) worker process, so
per-task pickling overhead is paid per chunk, not per trial.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.metrics_registry import MetricsRegistry
from repro.core.system import System

#: environment override for the default worker count (used by CI to pin
#: ``--jobs 2`` without threading a flag through every entry point)
JOBS_ENV = "REPRO_JOBS"


def usable_cpus() -> int:
    """CPUs this process may actually run on: the affinity mask where
    the platform has one (a container's cpuset shrinks it below
    ``os.cpu_count()``), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count when none is given: ``$REPRO_JOBS``, else
    ``usable_cpus() - 1`` (leave one core for the parent), floored at 1."""
    env = os.environ.get(JOBS_ENV)
    if env:
        return max(1, int(env))
    return max(1, usable_cpus() - 1)


# ----------------------------------------------------------------------
# specs and results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One independent trial: a config, optionally reseeded and labelled.

    A spec list can be reused (e.g. run at ``jobs=1`` and again at
    ``jobs=4`` for a parity check) and gives the same results each time:
    no run writes its config or the plans in it.
    """

    config: SystemConfig
    seed: Optional[int] = None
    label: str = ""

    def materialize(self) -> SystemConfig:
        """The config to run: the spec's own, reseeded if it says so."""
        if self.seed is None:
            return self.config
        return replace(self.config, seed=self.seed)


@dataclass
class TrialResult:
    """What comes back from one trial.

    ``wall_s`` is host wall-clock and therefore excluded from any parity
    comparison; everything else is a pure function of the spec.
    """

    index: int
    label: str
    summary: RunResult
    #: :meth:`MetricsRegistry.dump` of the trial's registry (mergeable)
    metrics: Dict[str, Dict[str, Any]]
    #: the trial's ``category.action`` trace counters (mergeable)
    trace_counters: Dict[str, int]
    wall_s: float = field(default=0.0, compare=False)
    #: :meth:`repro.obs.CostLedger.dump` when the trial ran with the
    #: cost ledger enabled (mergeable via :func:`merge_cost`)
    cost: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# trial execution (runs identically inline and inside a worker)
# ----------------------------------------------------------------------
def run_trial(spec: TrialSpec, index: int = 0) -> TrialResult:
    """Run one spec to completion in this process."""
    config = spec.materialize()
    start = time.perf_counter()
    with closing(System(config)) as system:
        summary = system.run()
        wall = time.perf_counter() - start
        return TrialResult(
            index=index,
            label=spec.label or config.name,
            summary=summary,
            metrics=system.registry.dump(),
            trace_counters=dict(system.trace.counters),
            wall_s=wall,
            cost=system.cost.dump() if system.cost is not None else None,
        )


def _run_chunk(chunk: Sequence[Tuple[int, TrialSpec]]) -> List[TrialResult]:
    """Worker entry point: run a contiguous slice of indexed specs."""
    return [run_trial(spec, index) for index, spec in chunk]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class TrialRunner:
    """Executes a list of :class:`TrialSpec` serially or in parallel.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` uses :func:`default_jobs`; ``1``
        runs fully in-process (no executor, no pickling).
    chunk_size:
        Specs per dispatched chunk.  ``None`` picks
        ``ceil(len(specs) / (4 * jobs))`` so each worker sees a few
        chunks (amortizing pickling) while stragglers still rebalance.
    """

    def __init__(self, jobs: Optional[int] = None, chunk_size: Optional[int] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
        self.chunk_size = chunk_size

    def run(self, specs: Iterable[TrialSpec]) -> List[TrialResult]:
        """Run every spec; results are ordered by spec index.

        The ordering (and everything inside each result except
        ``wall_s``) is independent of ``jobs``.
        """
        indexed = list(enumerate(specs))
        if not indexed:
            return []
        # every config is validated before the first trial: a bad one
        # fails before any runs, and each stack the fleet runs is imported
        # now, before a pool forks and while the heap is still small
        for _, spec in indexed:
            spec.config.validate()
        if self.jobs == 1 or len(indexed) == 1:
            return [run_trial(spec, index) for index, spec in indexed]
        # imported here: the pool drags in multiprocessing, logging, socket
        # and selectors (~30 ms), which a ``jobs=1`` process never needs
        from concurrent.futures import ProcessPoolExecutor

        chunk = self.chunk_size or max(1, -(-len(indexed) // (4 * self.jobs)))
        chunks = [indexed[i : i + chunk] for i in range(0, len(indexed), chunk)]
        results: List[TrialResult] = []
        workers = min(self.jobs, len(chunks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_run_chunk, chunks):
                results.extend(batch)
        results.sort(key=lambda r: r.index)
        return results


def run_results(
    configs: Iterable[SystemConfig],
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """One trial per config, in the given order, as bare
    :class:`RunResult`\\ s: a drop-in for a serial
    ``[run_config(c) for c in configs]`` loop."""
    specs = [TrialSpec(config=config) for config in configs]
    return [trial.summary for trial in TrialRunner(jobs=jobs).run(specs)]


# ----------------------------------------------------------------------
# cross-trial aggregation
# ----------------------------------------------------------------------
def merge_metrics(results: Sequence[TrialResult]) -> MetricsRegistry:
    """Fold every trial's registry dump into one registry, in spec order."""
    ordered = sorted(results, key=lambda r: r.index)
    return MetricsRegistry.merge([r.metrics for r in ordered])


def merge_cost(results: Sequence[TrialResult]):
    """Fold every trial's cost-ledger dump into one
    :class:`~repro.obs.CostLedger`, in spec order (byte-identical across
    job counts).  Trials that ran without the ledger are skipped;
    returns ``None`` when no trial carried one."""
    from repro.obs import merge_cost_dumps

    ordered = sorted(results, key=lambda r: r.index)
    dumps = [r.cost for r in ordered if r.cost is not None]
    if not dumps:
        return None
    return merge_cost_dumps(dumps)


def merge_trace_counters(results: Sequence[TrialResult]) -> Dict[str, int]:
    """Sum the trials' ``category.action`` counters, keyed in first-seen
    spec order (summation is commutative; the key order is pinned so the
    merged dict is byte-identical across job counts)."""
    merged: Dict[str, int] = {}
    for result in sorted(results, key=lambda r: r.index):
        for key, value in result.trace_counters.items():
            merged[key] = merged.get(key, 0) + value
    return merged
