"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import List, Optional

from repro import SystemConfig, build_system, run_config
from repro.procs.failure import CrashPlan


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
