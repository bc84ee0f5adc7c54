"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import SystemConfig, build_system, run_config
from repro.causality.determinant import Determinant
from repro.net.latency import LatencyModel
from repro.net.topology import Topology
from repro.procs.failure import CrashPlan
from repro.storage.volatile import DeterminantLog, SendLog


def small_config(
    n: int = 6,
    protocol: str = "fbl",
    recovery: str = "nonblocking",
    f: int = 2,
    crashes: Optional[List[CrashPlan]] = None,
    workload: str = "uniform",
    hops: int = 20,
    seed: int = 0,
    **overrides,
) -> SystemConfig:
    """A fast-running config for integration tests.

    Uses a small state size and short detection delay so recovery
    scenarios finish in few simulated seconds and few real milliseconds.
    """
    protocol_params = overrides.pop("protocol_params", None)
    if protocol_params is None:
        protocol_params = {"f": f} if protocol == "fbl" else {}
    workload_params = overrides.pop(
        "workload_params", {"hops": hops, "fanout": 2} if workload == "uniform" else {"hops": hops}
    )
    return SystemConfig(
        n=n,
        seed=seed,
        name=f"test-{protocol}-{recovery}",
        protocol=protocol,
        protocol_params=protocol_params,
        recovery=recovery,
        workload=workload,
        workload_params=workload_params,
        crashes=list(crashes or []),
        detection_delay=overrides.pop("detection_delay", 0.5),
        state_bytes=overrides.pop("state_bytes", 100_000),
        max_events=overrides.pop("max_events", 2_000_000),
        **overrides,
    )


class ConstantLatency(LatencyModel):
    """A fixed one-way delay whatever the size: a fake behind the
    network's latency seam, for tests that time messages exactly."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def sample(self, size_bytes: int, rng: random.Random) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """A delay drawn uniformly from ``[low, high]``: a fake behind the
    network's latency seam, for tests that need jitter."""

    def __init__(self, low: float, high: float) -> None:
        self.low = low
        self.high = high

    def sample(self, size_bytes: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


def full_mesh(n: int) -> Topology:
    """Nodes ``0..n-1``, each linked to every other: the topology
    ``System`` builds."""
    return Topology(range(n))


def e2e_workloads():
    """The benchmark's ``WORKLOADS`` table (``benchmarks/e2e/workloads.py``)."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def run_small(**kwargs):
    """Build and run a :func:`small_config` in one call."""
    return run_config(small_config(**kwargs))


# -- test-only views of the volatile logs ----------------------------------
def send_log_lookup(log: SendLog, dst: int, ssn: int) -> Optional[Tuple[Dict[str, Any], int]]:
    """The ``(payload, size)`` a :class:`SendLog` holds for ``(dst, ssn)``, or None."""
    return dict(log.messages_for(dst)).get(ssn)


def unstable(log: DeterminantLog) -> List[Determinant]:
    """Every determinant ``log.stable`` rejects, by full scan: the
    reference the protocols' unstable caches are tested against."""
    return [det for det in log.determinants() if not log.stable(log.mask(det))]
