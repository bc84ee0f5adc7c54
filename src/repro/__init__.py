"""repro -- reproduction of Elnozahy, "On the Relevance of Communication
Costs of Rollback-Recovery Protocols" (PODC 1995).

The package implements, from scratch and in pure Python:

* a deterministic discrete-event simulation of a message-passing cluster
  (network, stable storage, crash failures, failure detection),
* the Family-Based Logging protocols FBL(f), with sender-based message
  logging (f = 1) and Manetho-style logging (f = n) as instances,
* the paper's **new non-blocking recovery algorithm** and the blocking,
  message-optimal baseline it is evaluated against,
* comparator protocols (pessimistic logging, optimistic logging with
  orphan rollbacks, coordinated checkpointing),
* an experiment harness regenerating every result of the paper's
  evaluation section, plus the sweeps its argument implies.

Quickstart::

    from repro import SystemConfig, run_config, crash_at

    config = SystemConfig(
        n=8,
        protocol="fbl",
        protocol_params={"f": 2},
        recovery="nonblocking",
        workload="uniform",
        workload_params={"hops": 20, "fanout": 2},
        crashes=[crash_at(node=3, time=0.05)],
    )
    result = run_config(config)
    print(result.recovery_durations(), result.mean_blocked_time(exclude=[3]))
"""

from repro.core.config import SystemConfig
from repro.core.metrics import RecoveryEpisode, RunResult
from repro.core.system import System, build_system, run_config
from repro.procs.failure import crash_at, crash_on

# scenario builders for the paper's experiments live in repro.experiments;
# analysis/report/timeline tooling in repro.analysis

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "RecoveryEpisode",
    "RunResult",
    "System",
    "build_system",
    "run_config",
    "crash_at",
    "crash_on",
    "__version__",
]
