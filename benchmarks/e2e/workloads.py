"""The six benchmark workloads: seed -> a fixed list of ``TrialSpec``.

A workload is pure input generation.  ``--seed`` reaches the program
only through the generated configs: trial ``i`` of a workload gets
``SystemConfig.seed = seed + i`` and the same value as its workload
seed (the application's routing choices hash that seed, the network's
loss/latency draws use the config seed).  Every workload keeps the
*amount* of simulated work fixed -- hop counts and trial counts never
depend on the seed -- so host time is comparable across seeds.

Why each workload exists is recorded next to it (and in README.md).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

from repro.core.config import FaultConfig, StorageRealismConfig, SystemConfig
from repro.experiments import PAPER_DEFAULTS
from repro.procs.failure import CrashPlan, crash_at, crash_on
from repro.runner import TrialSpec


class Workload(NamedTuple):
    """One named set of inputs."""

    name: str
    why: str
    #: (seed, scale) -> the trial list one rep runs
    specs: Callable[[int, float], List[TrialSpec]]
    #: the trials keep a full trace / run the sanitizer and ledger, so
    #: the correctness gate also demands a clean sanitizer and a
    #: conserved ledger
    observed: bool = False


def _hops(hops: int, scale: float) -> int:
    return max(4, round(hops * scale))


def _config(name: str, seed: int, hops: int, **overrides: Any) -> SystemConfig:
    """The paper's evaluation setting (``PAPER_DEFAULTS``) with
    observers off, seeded, plus overrides."""
    settings: Dict[str, Any] = dict(PAPER_DEFAULTS)
    settings["workload_params"] = {"hops": hops, "fanout": 2, "seed": seed}
    settings["keep_trace_events"] = False
    settings.update(overrides)
    return SystemConfig(name=name, seed=seed, **settings)


def _spec(config: SystemConfig) -> TrialSpec:
    return TrialSpec(config=config, label=config.name)


# ----------------------------------------------------------------------
def steady_fbl(seed: int, scale: float) -> List[TrialSpec]:
    return [_spec(_config("steady-fbl", seed, _hops(400, scale)))]


def _second_victim_on(recovery: str) -> CrashPlan:
    """E2's hard case: node 5 dies the instant the first recovery's
    request reaches it, before it can reply."""
    trigger = "depinfo_request" if recovery == "nonblocking" else "recovery_request"
    return crash_on(
        5, "net", "deliver", match_node=5,
        match_details={"mtype": trigger}, immediate=True,
    )


def recovery_churn(seed: int, scale: float) -> List[TrialSpec]:
    hops = _hops(40, scale)
    specs = []
    for rep in range(2):
        base = seed + 5 * rep
        for offset, recovery in enumerate(("nonblocking", "blocking")):
            specs.append(_spec(_config(
                f"single-failure-{recovery}-{rep}", base + offset, hops,
                recovery=recovery, crashes=[crash_at(3, 0.05)],
            )))
            specs.append(_spec(_config(
                f"failure-during-recovery-{recovery}-{rep}", base + 2 + offset, hops,
                recovery=recovery,
                crashes=[crash_at(3, 0.05), _second_victim_on(recovery)],
            )))
        specs.append(_spec(_config(
            f"leader-failure-{rep}", base + 4, hops,
            crashes=[
                crash_at(3, 0.05),
                crash_at(5, 0.06),
                crash_on(3, "recovery", "leader_elected", match_node=3, immediate=True),
            ],
        )))
    return specs


def lossy_transport(seed: int, scale: float) -> List[TrialSpec]:
    return [_spec(_config(
        "lossy-transport", seed, _hops(250, scale),
        crashes=[crash_at(3, 0.05)],
        faults=FaultConfig(loss_prob=0.2),
        transport="reliable",
        transport_params={"max_retries": 30},
        state_bytes=100_000,
        detection_delay=0.5,
    ))]


#: (protocol, recovery, protocol_params): the three non-FBL class trees
_STORAGE_STACKS = (
    ("pessimistic", "local", {}),
    ("optimistic", "optimistic", {}),
    ("coordinated", "coordinated", {"snapshot_every": 12}),
)


def storage_logging(seed: int, scale: float) -> List[TrialSpec]:
    hops = _hops(50, scale)
    specs = []
    for index, (protocol, recovery, params) in enumerate(_STORAGE_STACKS):
        for realism in (None, StorageRealismConfig(
            incremental_checkpoints=True, group_commit=True, log_compaction=True,
        )):
            kind = "flat" if realism is None else "realism"
            specs.append(_spec(_config(
                f"storage-{protocol}-{kind}", seed + len(specs), hops,
                protocol=protocol, protocol_params=dict(params), recovery=recovery,
                crashes=[crash_at(2, 0.05)],
                checkpoint_every=25,
                state_bytes=100_000,
                storage_realism=realism,
            )))
    return specs


def observed_run(seed: int, scale: float) -> List[TrialSpec]:
    return [_spec(_config(
        "observed-run", seed, _hops(200, scale),
        crashes=[crash_at(3, 0.05)],
        keep_trace_events=True,
        spans=True,
        sanitize=True,
        cost_ledger=True,
        timeseries_window=0.01,
        profile=True,
    ))]


#: (label, protocol, protocol_params, recovery): every protocol tree and
#: every recovery manager the repo ships
_FLEET_STACKS = (
    ("fbl-nonblocking", "fbl", {"f": 2}, "nonblocking"),
    ("fbl-blocking", "fbl", {"f": 2}, "blocking"),
    ("sender_based", "sender_based", {}, "nonblocking"),
    ("manetho", "manetho", {}, "nonblocking"),
    ("pessimistic", "pessimistic", {}, "local"),
    ("optimistic", "optimistic", {}, "optimistic"),
    ("coordinated", "coordinated", {"snapshot_every": 12}, "coordinated"),
    ("adaptive", "adaptive", {}, "nonblocking"),
)


def sweep_fleet(seed: int, scale: float) -> List[TrialSpec]:
    seeds_per_cell = max(1, round(3 * scale))
    specs = []
    for label, protocol, params, recovery in _FLEET_STACKS:
        for n in (4, 8):
            for _ in range(seeds_per_cell):
                specs.append(_spec(_config(
                    f"fleet-{label}-n{n}-{len(specs)}", seed + len(specs), 8,
                    n=n, protocol=protocol, protocol_params=dict(params),
                    recovery=recovery, crashes=[crash_at(1, 0.02)],
                )))
    return specs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "steady_fbl",
            "failure-free FBL(f=2) path with every observer off (paper E6): "
            "protocols dominate; bypasses storage, transport, recovery and observers",
            steady_fbl,
        ),
        Workload(
            "recovery_churn",
            "paper E1/E2 at paper defaults: single, concurrent and leader failures "
            "under both recovery algorithms; carries the sim_recovery_* claims; storage read-side",
            recovery_churn,
        ),
        Workload(
            "lossy_transport",
            "20% loss over the reliable transport, one crash (BENCH_KERNEL lossy_system): "
            "the only workload where transport runs; net+transport are 29% of it",
            lossy_transport,
        ),
        Workload(
            "storage_logging",
            "pessimistic, optimistic and coordinated stacks, flat and with storage realism: "
            "storage write-side is the largest layer; the non-FBL class trees",
            storage_logging,
        ),
        Workload(
            "observed_run",
            "single failure with trace, spans, sanitizer, ledger, sampler and profiler on: "
            "prices instrumentation (and the garbage it keeps) against steady_fbl",
            observed_run,
            observed=True,
        ),
        Workload(
            "sweep_fleet",
            "48 short trials over 8 protocol x recovery stacks, n in {4,8}, via "
            "TrialRunner(jobs=1): what grid, chaos and tier-1 run; build/summarize share "
            "and a per-trial p95",
            sweep_fleet,
        ),
    )
}
