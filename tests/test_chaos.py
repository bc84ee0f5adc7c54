"""Chaos harness: random workloads x random fault schedules.

Property-style robustness testing for every protocol/recovery pairing:
each trial draws a workload and a fault schedule (message loss up to
20%, duplication, reordering, a healed partition, transient storage
faults, 0--2 crashes, and a checkpoint cadence of 0, 3, 5 or 9
deliveries) from a seeded generator, runs the full system with the
reliable transport, and asserts the paper's invariants:

* the :class:`ConsistencyOracle` records **zero** violations,
* every crashed process recovers and every process ends live,
* the run terminates in bounded virtual time, and
* the whole trial is deterministic per ``(combo, seed, replica)``.

Every seed runs twice: replica 0 in the kernel's canonical FIFO order
for same-instant events, and replica 1 under a seeded tie-break shuffle
(``SystemConfig.tiebreak_seed``).  Any same-instant order is a legal
schedule, so a trial that passes only in FIFO order hides a schedule
race.  Both replicas are judged by the same invariants; a perturbed
replica's name carries its tie-break seed, so a failing label says how
to replay it.

``CHAOS_RUNS_PER_COMBO`` (env var, default 30) scales the sweep: it
counts seeds, so a combo runs twice that many trials.  The CI chaos job
runs the same suite under a fixed seed base.  Trials execute
through :class:`repro.runner.TrialRunner` (worker count from
``REPRO_JOBS``, serial by default), and since every trial is
deterministic, a failing one is replayed in-process to capture its
trace for the artifact dump.

The sweep covers every ``(protocol, recovery)`` pair a protocol lists
in ``supported_recovery``.  Crash counts respect each protocol's failure
budget: its ``f`` capped at 2 (FBL(f=2) and Manetho (f = n) get up to
two overlapping crashes), and the single-failure protocols get at most
one crash per trial.  A combo runs every seed and reports every failing
one.
"""

import os
import random
import zlib
from typing import Optional

import pytest

from repro import SystemConfig, build_system
from repro.core.config import FaultConfig
from repro.core.system import _build_protocol
from repro.procs.failure import crash_at, storage_outage_at
from repro.protocols import PROTOCOLS

RUNS_PER_COMBO = int(os.environ.get("CHAOS_RUNS_PER_COMBO", "30"))
SEED_BASE = int(os.environ.get("CHAOS_SEED_BASE", "0"))
#: when set, a failing trial dumps its JSONL trace + span summary here
#: (CI uploads the directory as a workflow artifact)
ARTIFACT_DIR = os.environ.get("CHAOS_ARTIFACT_DIR", "")
#: when truthy, every trial also runs the online invariant monitor
#: (repro.sanitizer) and a sanitizer violation fails the trial; the
#: nightly workflow turns this on for the deep sweep
SANITIZE = os.environ.get("CHAOS_SANITIZE", "") not in ("", "0")
#: "churn" biases every trial toward cascading failures: the full crash
#: budget fires inside one ~1.5 s window (later crashes land mid-recovery
#: of earlier ones) and a partition always cuts the system and heals in
#: the middle of that window; the nightly workflow runs both profiles
PROFILE = os.environ.get("CHAOS_PROFILE", "")


def derive_tiebreak_seed(seed: int, replica: int) -> Optional[int]:
    """Deterministic per-replica tie-break seed; replica 0 is canonical."""
    if replica == 0:
        return None
    return (seed * 1_000_003 + replica * 7_919 + 0x5EED) & 0x7FFF_FFFF


def chaos_config(
    protocol: str,
    recovery: str,
    max_crashes: int,
    seed: int,
    profile: str = None,
    replica: int = 0,
) -> SystemConfig:
    """Draw one random scenario; fully determined by the arguments.

    ``profile`` defaults to ``$CHAOS_PROFILE``; the empty default keeps
    the original fault distribution byte-for-byte (the churn overrides
    draw *after* every standard draw, so default-profile seeds are
    unchanged).  ``replica`` picks the same-instant tie order: 0 is the
    canonical FIFO run, and any other value the same scenario under
    :func:`derive_tiebreak_seed`, named ``...-<seed>-tb<tiebreak_seed>``.
    """
    if profile is None:
        profile = PROFILE
    combo_tag = zlib.crc32(f"{protocol}/{recovery}".encode()) & 0xFFFF
    draw = random.Random(combo_tag * 100_000 + seed)
    n = draw.choice([4, 5, 6])
    hops = draw.randrange(20, 50)

    faults = FaultConfig(
        loss_prob=draw.uniform(0.0, 0.2),
        dup_prob=draw.uniform(0.0, 0.1),
        reorder_prob=draw.uniform(0.0, 0.15),
        reorder_delay=draw.uniform(0.001, 0.004),
        storage_fail_prob=draw.uniform(0.0, 0.08),
    )
    if draw.random() < 0.5:
        # a healed partition: random 2-way split of apps + sequencer
        members = list(range(n + 1))
        draw.shuffle(members)
        cut = draw.randrange(1, n)
        start = draw.uniform(0.01, 0.3)
        faults.partitions.append(
            ([members[:cut], members[cut:]], start + draw.uniform(0.1, 0.5))
        )

    injections = []
    if draw.random() < 0.3:
        # a brief full storage outage on one node
        injections.append(
            storage_outage_at(
                draw.randrange(n), draw.uniform(0.01, 0.5), draw.uniform(0.02, 0.1)
            )
        )

    crashes = []
    for victim in draw.sample(range(n), draw.randint(0, max_crashes)):
        crashes.append(crash_at(victim, draw.uniform(0.02, 0.8)))

    if profile == "churn":
        # cascading failures: the whole crash budget fires inside one
        # short window, so every crash after the first lands while an
        # earlier recovery is still gathering
        window = draw.uniform(0.02, 0.4)
        crashes = [
            crash_at(victim, window + draw.uniform(0.0, 1.5))
            for victim in draw.sample(range(n), max_crashes)
        ]
        # and a partition that is up when recovery starts and heals in
        # the middle of the gather, forcing resumes over fresh links
        members = list(range(n + 1))
        draw.shuffle(members)
        cut = draw.randrange(1, n)
        faults.partitions = [
            ([members[:cut], members[cut:]], window + draw.uniform(0.3, 1.0))
        ]

    # the last draw, so every earlier one -- each seed's fault schedule --
    # is what it was before checkpoints joined the matrix; three in four
    # trials now crash onto (and restore from) a mid-run recovery line
    checkpoint_every = draw.choice((0, 3, 5, 9))

    params = {}
    if protocol == "fbl":
        params = {"f": 2}
    elif protocol == "coordinated":
        params = {"snapshot_every": 8}
    elif protocol == "adaptive":
        # an eager controller so short chaos runs still cross modes
        params = {"f": 2, "eval_every": 6, "min_dwell": 8, "hysteresis": 1.0}
    tiebreak_seed = derive_tiebreak_seed(seed, replica)
    name = f"chaos-{profile + '-' if profile else ''}{protocol}-{recovery}-{seed}"
    if tiebreak_seed is not None:
        name += f"-tb{tiebreak_seed}"
    return SystemConfig(
        n=n,
        seed=seed,
        # spans cost no simulated events, and a failing trial's dump is
        # far more useful with recovery phases attributed
        spans=True,
        sanitize=SANITIZE,
        name=name,
        protocol=protocol,
        protocol_params=params,
        recovery=recovery,
        workload="uniform",
        workload_params={"hops": hops, "fanout": 2},
        crashes=crashes,
        injections=injections,
        faults=faults,
        transport="reliable",
        # at 20% loss a round trip fails ~36% of the time; 30 retries make
        # a give-up between live endpoints (which would void the reliable-
        # channel abstraction the protocols assume) astronomically unlikely
        transport_params={"max_retries": 30},
        detection_delay=0.5,
        state_bytes=100_000,
        checkpoint_every=checkpoint_every,
        max_events=3_000_000,
        tiebreak_seed=tiebreak_seed,
    )


def crash_budget(protocol: str, recovery: str) -> int:
    """The most concurrent crashes a trial of the pair draws: the
    protocol's ``f`` capped at 2, and 1 for the single-failure protocols
    (no ``f``)."""
    protocol_obj = _build_protocol(chaos_config(protocol, recovery, 0, 0))
    return min(2, getattr(protocol_obj, "f", 1))


#: (protocol, recovery, max concurrent crashes the protocol tolerates)
#: for every pair the protocols support
COMBOS = [
    (protocol, recovery, crash_budget(protocol, recovery))
    for protocol, cls in PROTOCOLS.items()
    for recovery in cls.supported_recovery
]


def check_invariants(config, result):
    """The paper's invariants, on a (possibly worker-produced) result.

    Returns a list of violation descriptions; empty means the trial
    passed.  Everything asserted here must live on the picklable
    :class:`RunResult` so trials can run in worker processes.
    """
    context = f"{config.name} (crashes={len(config.crashes)})"
    failures = []
    if not result.consistent:
        failures.append(
            f"{context}: oracle violations {result.oracle_violations[:3]}"
        )
    non_live = result.extra["non_live_nodes"]
    if non_live:
        failures.append(f"{context}: nodes left non-live {non_live}")
    if not all(e.complete for e in result.episodes):
        failures.append(f"{context}: unfinished recovery episodes")
    if len(result.episodes) < len(config.crashes):
        failures.append(
            f"{context}: {len(result.episodes)} episodes for "
            f"{len(config.crashes)} crashes"
        )
    if result.end_time >= 60.0:
        failures.append(f"{context}: ran to {result.end_time}")
    if result.final_progress <= 0:
        failures.append(f"{context}: no progress")
    sanitizer = result.extra.get("sanitizer")
    if sanitizer is not None and not sanitizer["clean"]:
        failures.append(
            f"{context}: sanitizer violations "
            f"{[v['invariant'] for v in sanitizer['violations'][:3]]}"
        )
    return failures


def dump_failure_artifacts(config, system) -> None:
    """Preserve a failing trial's evidence for post-mortem.

    Writes ``<name>.trace.jsonl`` (replayable with ``repro trace``) and
    ``<name>.spans.txt`` (the span forest) under ``CHAOS_ARTIFACT_DIR``;
    a no-op when the env var is unset (local runs).
    """
    if not ARTIFACT_DIR:
        return
    from repro.analysis.report import format_span_tree
    from repro.analysis.trace_io import dump_trace
    from repro.sim.spans import spans_from_trace

    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    base = os.path.join(ARTIFACT_DIR, config.name)
    dump_trace(system.trace, base + ".trace.jsonl")
    with open(base + ".spans.txt", "w", encoding="utf-8") as handle:
        handle.write(format_span_tree(spans_from_trace(system.trace)))
        handle.write("\n")


@pytest.mark.parametrize("protocol,recovery,max_crashes", COMBOS,
                         ids=[f"{p}-{r}" for p, r, _ in COMBOS])
def test_chaos_no_violations_and_eventual_recovery(protocol, recovery, max_crashes):
    from repro.runner import TrialRunner, TrialSpec

    configs = [
        chaos_config(protocol, recovery, max_crashes, SEED_BASE + trial, replica=replica)
        for trial in range(RUNS_PER_COMBO)
        for replica in (0, 1)
    ]
    try:
        trials = TrialRunner().run(TrialSpec(config=c) for c in configs)
        summaries = [trial.summary for trial in trials]
    except Exception:
        # a trial raised and took the fleet with it: judge every trial
        # by its in-process replay below, so each failure is reported
        summaries = [None] * len(configs)
    failures = []
    for config, summary in zip(configs, summaries):
        found = [] if summary is None else check_invariants(config, summary)
        if summary is not None and not found:
            continue
        # the trial is deterministic per (combo, seed, replica): replay it
        # in-process to recover the trace the worker didn't ship back
        system = build_system(config)
        try:
            replayed = check_invariants(config, system.run())
        except Exception as exc:
            replayed = [f"{config.name}: raised {type(exc).__name__}: {exc}"]
        if summary is None:
            found = replayed
        elif replayed != found:
            found.append(f"{config.name}: in-process replay disagrees: {replayed}")
        if found:
            dump_failure_artifacts(config, system)
            failures.append("; ".join(found))
    assert not failures, f"{len(failures)} of {len(configs)} trials failed:\n" + "\n".join(failures)


def test_derive_tiebreak_seed_is_canonical_for_replica_zero():
    assert derive_tiebreak_seed(0, 0) is None
    assert derive_tiebreak_seed(1234, 0) is None
    one = derive_tiebreak_seed(7, 1)
    two = derive_tiebreak_seed(7, 2)
    assert one is not None and two is not None and one != two
    assert derive_tiebreak_seed(7, 1) == one  # deterministic


def run_fbl_nonblocking(seed, replica=0):
    return build_system(
        chaos_config("fbl", "nonblocking", 2, seed, replica=replica)
    ).run()


def test_chaos_trial_is_deterministic():
    """The same (combo, seed, replica) must replay event-for-event."""

    def fingerprint(seed, replica):
        result = run_fbl_nonblocking(seed, replica)
        return (
            result.end_time,
            dict(result.network.messages),
            dict(result.network.bytes),
            result.network.dropped,
            dict(result.network.drops_by_cause),
            result.network.retransmits,
            result.network.duplicates_injected,
            dict(result.digests),
            result.extra["events_processed"],
            result.extra.get("transport_stats"),
        )

    for replica in (0, 1):
        assert fingerprint(SEED_BASE + 3, replica) == fingerprint(SEED_BASE + 3, replica)


def test_chaos_generator_exercises_every_fault_class():
    """Across the sweep the generator must actually produce each fault
    kind, and the perturbed replica must actually reorder something
    (guards against a silently-degenerate harness)."""
    saw = {"loss": False, "dup": False, "partition": False,
           "storage": False, "crash": False, "outage": False,
           "perturbation": False}
    for trial in range(max(RUNS_PER_COMBO, 20)):
        config = chaos_config("fbl", "nonblocking", 2, SEED_BASE + trial)
        saw["loss"] |= config.faults.loss_prob > 0.01
        saw["dup"] |= config.faults.dup_prob > 0.01
        saw["partition"] |= bool(config.faults.partitions)
        saw["storage"] |= config.faults.storage_fail_prob > 0.01
        saw["crash"] |= bool(config.crashes)
        saw["outage"] |= bool(config.injections)
        if not saw["perturbation"]:
            canonical, perturbed = (
                run_fbl_nonblocking(SEED_BASE + trial, replica) for replica in (0, 1)
            )
            saw["perturbation"] = (
                canonical.end_time != perturbed.end_time
                or canonical.extra["events_processed"]
                != perturbed.extra["events_processed"]
            )
    missing = [k for k, v in saw.items() if not v]
    assert not missing, f"chaos generator never produced: {missing}"
