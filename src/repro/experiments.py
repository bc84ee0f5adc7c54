"""Ready-made scenario builders for the paper's experiments.

``benchmarks/paper_tables.py`` builds EXPERIMENTS.md's tables from
these builders and :func:`paper_config`, so a downstream user runs the
same scenarios::

    from repro import build_system
    from repro.experiments import single_failure

    result = build_system(single_failure(recovery="nonblocking")).run()

Every scenario has the paper's evaluation parameters (eight processes,
FBL f = 2, 1 MB state, 3 s failure detection) unless overridden.
:func:`single_failure`, :func:`failure_during_recovery` and
:func:`leader_failure` return a :class:`~repro.core.config.SystemConfig`;
the others return an un-started :class:`~repro.core.system.System`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.config import SystemConfig
from repro.core.system import System, build_system
from repro.procs.failure import CrashPlan, crash_at, crash_on

#: the evaluation's defaults (Section 5)
PAPER_DEFAULTS: Dict[str, Any] = {
    "n": 8,
    "protocol": "fbl",
    "protocol_params": {"f": 2},
    "workload": "uniform",
    "workload_params": {"hops": 40, "fanout": 2},
    "detection_delay": 3.0,
    "state_bytes": 1_000_000,
}


def default_protocol_params(protocol: str, f: int = 2) -> Dict[str, Any]:
    """A protocol's construction parameters when none are given: FBL and
    the adaptive hybrid tolerate ``f`` failures, coordinated
    checkpointing snapshots every 12 deliveries, the others take none.
    Every paper table, scenario builder and CLI run uses this rule."""
    if protocol in ("fbl", "adaptive"):
        return {"f": f}
    if protocol == "coordinated":
        return {"snapshot_every": 12}
    return {}


def paper_config(
    name: str,
    recovery: str = "nonblocking",
    crashes: Optional[List[CrashPlan]] = None,
    f: int = 2,
    hops: int = 40,
    **overrides: Any,
) -> SystemConfig:
    """The evaluation's configuration plus overrides: ``protocol_params``
    default to :func:`default_protocol_params` at ``f``, and ``hops``
    sizes the uniform workload."""
    settings: Dict[str, Any] = dict(
        PAPER_DEFAULTS, workload_params={"hops": hops, "fanout": 2}
    )
    settings.update(overrides)
    if overrides.get("protocol_params") is None:
        settings["protocol_params"] = default_protocol_params(settings["protocol"], f)
    return SystemConfig(
        name=name, recovery=recovery, crashes=list(crashes or []), **settings
    )


# ----------------------------------------------------------------------
# the evaluation's two experiments
# ----------------------------------------------------------------------
def single_failure(
    recovery: str = "nonblocking",
    victim: int = 3,
    at: float = 0.05,
    **overrides: Any,
) -> SystemConfig:
    """E1: one process crashes mid-workload."""
    return paper_config(
        f"single-failure-{recovery}",
        recovery=recovery,
        crashes=[crash_at(node=victim, time=at)],
        **overrides,
    )


def failure_during_recovery(
    recovery: str = "nonblocking",
    first_victim: int = 3,
    second_victim: int = 5,
    at: float = 0.05,
    **overrides: Any,
) -> SystemConfig:
    """E2: a second process dies the instant the first recovery's
    request reaches it, before it can reply -- the paper's hard case."""
    trigger = "depinfo_request" if recovery == "nonblocking" else "recovery_request"
    return paper_config(
        f"failure-during-recovery-{recovery}",
        recovery=recovery,
        crashes=[
            crash_at(node=first_victim, time=at),
            crash_on(
                second_victim, "net", "deliver",
                match_node=second_victim,
                match_details={"mtype": trigger},
                immediate=True,
            ),
        ],
        **overrides,
    )


def lossy_network(
    recovery: str = "nonblocking",
    loss: float = 0.05,
    dup: float = 0.0,
    reorder: float = 0.0,
    victim: int = 3,
    at: float = 0.05,
    transport_params: Optional[Dict[str, Any]] = None,
    **overrides: Any,
) -> System:
    """E11: the single-failure scenario on a faulty network.

    The reliable transport re-establishes the channel abstraction the
    protocols assume; the run's ledger then shows what that reliability
    costs (retransmissions, acks) on top of the paper's recovery traffic.
    """
    from repro.core.config import FaultConfig

    return build_system(paper_config(
        f"lossy-{recovery}-loss{loss:g}",
        recovery=recovery,
        crashes=[crash_at(node=victim, time=at)] if victim is not None else [],
        faults=FaultConfig(loss_prob=loss, dup_prob=dup, reorder_prob=reorder),
        transport="reliable",
        transport_params=dict(transport_params or {}),
        **overrides,
    ))


def leader_failure(
    victim: int = 3,
    second_victim: int = 5,
    at: float = 0.05,
    **overrides: Any,
) -> SystemConfig:
    """E8b: the recovery leader itself dies right after election; the
    next ordinal must take over."""
    return paper_config(
        "leader-failure",
        recovery="nonblocking",
        crashes=[
            crash_at(node=victim, time=at),
            crash_at(node=second_victim, time=at + 0.01),
            crash_on(victim, "recovery", "leader_elected",
                     match_node=victim, immediate=True),
        ],
        **overrides,
    )


def figure1(
    recovery: str = "nonblocking",
    crash_p: bool = False,
    crash_q: bool = False,
    **overrides: Any,
) -> System:
    """The Section-2.1 example: S sends m to P, P sends m' to Q, Q sends
    m'' to R, under FBL(f=2), with optional crashes of P and/or Q."""
    from repro.procs.process import Send
    from repro.workloads.generators import Workload

    S, P, Q, R = 0, 1, 2, 3

    class Figure1Workload(Workload):
        def initial_sends(self, node_id, n_nodes):
            if node_id == S:
                return [Send(dst=P, payload={"name": "m"}, body_bytes=64)]
            return []

        def on_deliver(self, node_id, n_nodes, rsn, sender, payload):
            if node_id == P and payload.get("name") == "m":
                return [Send(dst=Q, payload={"name": "m_prime"}, body_bytes=64)]
            if node_id == Q and payload.get("name") == "m_prime":
                return [Send(dst=R, payload={"name": "m_dprime"}, body_bytes=64)]
            return []

    crashes = []
    if crash_p:
        crashes.append(crash_at(node=P, time=0.01))
    if crash_q:
        crashes.append(crash_at(node=Q, time=0.01))
    system = build_system(paper_config(
        f"figure1-{recovery}", recovery=recovery, crashes=crashes,
        n=4, **overrides,
    ))
    for node in system.nodes:
        node.app.workload = Figure1Workload()
    return system


def output_commit_scenario(
    protocol: str = "fbl",
    recovery: str = "nonblocking",
    output_every: int = 4,
    crashes: Optional[List[CrashPlan]] = None,
    **overrides: Any,
) -> System:
    """E9: the workload externalises an output every k deliveries."""
    return build_system(paper_config(
        f"output-{protocol}-{recovery}",
        recovery=recovery,
        crashes=crashes,
        protocol=protocol,
        workload_params={"hops": 40, "fanout": 2, "output_every": output_every},
        **overrides,
    ))
