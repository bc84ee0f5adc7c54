"""Core: the assembled rollback-recovery system and its harness.

* :mod:`repro.core.config` -- one declarative description of a run
  (n, protocol, f, recovery algorithm, workload, failure schedule,
  hardware parameters).
* :mod:`repro.core.node` -- a simulated host: application process +
  logging protocol + recovery manager + incarnation bookkeeping.
* :mod:`repro.core.system` -- builds and runs a whole system, producing
  a :class:`~repro.core.metrics.RunResult`.
* :mod:`repro.core.metrics` -- measurements the paper reports (blocked
  time of live processes, recovery durations, control-message overhead,
  stable-storage stalls).
* :mod:`repro.core.oracle` -- an omniscient observer (zero simulated
  cost) that checks the paper's safety and liveness properties on every
  run: replayed deliveries match the original order and digests, and no
  delivery visible at a live process depends on a rolled-back delivery.
"""

from repro.core.config import SystemConfig
from repro.core.metrics import MetricsCollector, RecoveryEpisode, RunResult
from repro.core.node import Node, NodeState
from repro.core.oracle import ConsistencyOracle, OracleViolation
from repro.core.system import System, build_system, run_config

__all__ = [
    "SystemConfig",
    "MetricsCollector",
    "RecoveryEpisode",
    "RunResult",
    "Node",
    "NodeState",
    "ConsistencyOracle",
    "OracleViolation",
    "System",
    "build_system",
    "run_config",
]
