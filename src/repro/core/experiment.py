"""Parameter sweeps and repeated runs.

The benchmarks use :class:`ExperimentRunner` to run a family of
configurations (e.g. blocking vs non-blocking recovery over a sweep of
storage latencies), aggregate the metrics the paper reports, and format
them as rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.system import run_config
from repro.runner import TrialSpec


@dataclass
class SweepResult:
    """All runs of one experiment, keyed by configuration name."""

    results: Dict[str, List[RunResult]] = field(default_factory=dict)

    def add(self, result: RunResult) -> None:
        self.results.setdefault(result.config_name, []).append(result)

    def names(self) -> List[str]:
        return list(self.results)

    def of(self, name: str) -> List[RunResult]:
        return self.results[name]

    def single(self, name: str) -> RunResult:
        runs = self.results[name]
        if len(runs) != 1:
            raise ValueError(f"{name!r} has {len(runs)} runs, expected one")
        return runs[0]

    def mean_over_runs(self, name: str, fn: Callable[[RunResult], float]) -> float:
        runs = self.results[name]
        return sum(fn(r) for r in runs) / len(runs)

    def all_consistent(self) -> bool:
        return all(r.consistent for runs in self.results.values() for r in runs)


class ExperimentRunner:
    """Runs configurations (optionally repeated over seeds)."""

    def __init__(self, repetitions: int = 1, base_seed: int = 0) -> None:
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions!r}")
        self.repetitions = repetitions
        self.base_seed = base_seed

    def run(self, configs: Iterable[SystemConfig]) -> SweepResult:
        """Run every config ``repetitions`` times with derived seeds."""
        sweep = SweepResult()
        for config in configs:
            for rep in range(self.repetitions):
                sweep.add(self._run_rep(config, rep))
        return sweep

    def run_one(self, config: SystemConfig) -> RunResult:
        """Convenience for a single configuration, single repetition."""
        return self._run_rep(config, 0)

    def _run_rep(self, config: SystemConfig, rep: int) -> RunResult:
        seed = config.seed + (self.base_seed + rep) * 10_007
        return run_config(TrialSpec(config, seed=seed).materialize())
