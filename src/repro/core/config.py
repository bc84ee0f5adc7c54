"""Declarative run configuration.

A :class:`SystemConfig` fully determines a simulation: same config +
same seed = identical run, event for event.  Defaults follow the paper's
testbed (Section 5): eight workstations, 155 Mb/s ATM network, ~1 MB
process images, mid-90s stable storage, and "several seconds" of failure
detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.procs.failure import DEFAULT_DETECTION_DELAY, CrashPlan, TriggeredPlan
from repro.protocols import PROTOCOLS
from repro.recovery import RECOVERY_MANAGERS
from repro.storage.stable import DEFAULT_BANDWIDTH, DEFAULT_OP_LATENCY


@dataclass
class FaultConfig:
    """Static fault environment of a run (see :mod:`repro.net.faults` and
    :mod:`repro.storage.stable`).

    These faults are *on from time zero* (dynamic, mid-run faults are
    injected with the plans in :mod:`repro.procs.failure` instead).  The
    all-defaults instance describes the seed's perfect environment; a
    config with ``faults=None`` skips even building the models, keeping
    the default path byte-identical to the seed.
    """

    # -- network ----------------------------------------------------------
    #: probability each transmission is silently lost
    loss_prob: float = 0.0
    #: probability a surviving transmission is delivered twice
    dup_prob: float = 0.0
    #: probability a surviving transmission gets reordering delay
    reorder_prob: float = 0.0
    #: maximum extra delay (uniform) applied to reordered messages
    reorder_delay: float = 0.002
    #: per-directed-link overrides, (src, dst) -> kwargs for LinkFaultSpec
    link_overrides: Dict[Tuple[int, int], Dict[str, float]] = field(
        default_factory=dict
    )
    #: partitions active from the start: (groups, heal_time_or_None)
    partitions: List[Tuple[Sequence[Iterable[int]], Optional[float]]] = field(
        default_factory=list
    )

    # -- stable storage ---------------------------------------------------
    #: probability each storage attempt fails transiently (every node)
    storage_fail_prob: float = 0.0
    #: outage windows (start, end_or_None) applied to every node
    storage_windows: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    #: retry policy kwargs (base_delay, multiplier, max_delay, max_attempts)
    storage_retry: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def any_network(self) -> bool:
        """Whether a network fault model is needed at all."""
        return bool(
            self.loss_prob
            or self.dup_prob
            or self.reorder_prob
            or self.link_overrides
            or self.partitions
        )

    def any_storage(self) -> bool:
        """Whether per-node storage fault models are needed."""
        return bool(self.storage_fail_prob or self.storage_windows)

    def validate(self) -> None:
        for name in ("loss_prob", "dup_prob", "reorder_prob", "storage_fail_prob"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")
        if self.reorder_delay < 0:
            raise ValueError("reorder_delay must be non-negative")

    def build_network_model(self):
        """Materialize the :class:`~repro.net.faults.NetworkFaultModel`
        (or ``None`` when no network fault is configured)."""
        if not self.any_network():
            return None
        from repro.net.faults import LinkFaultSpec, NetworkFaultModel, Partition

        model = NetworkFaultModel(
            default=LinkFaultSpec(
                loss_prob=self.loss_prob,
                dup_prob=self.dup_prob,
                reorder_prob=self.reorder_prob,
                reorder_delay=self.reorder_delay,
            )
        )
        for (src, dst), kwargs in self.link_overrides.items():
            model.set_link(src, dst, LinkFaultSpec(**kwargs))
        for groups, heal in self.partitions:
            model.add_partition(Partition(groups, start=0.0, end=heal))
        return model

    def build_storage_model(self):
        """Materialize one :class:`~repro.storage.stable.StorageFaultModel`
        (each node gets its own instance; ``None`` if storage is clean)."""
        if not self.any_storage():
            return None
        from repro.storage.stable import StorageFaultModel, StorageRetryPolicy

        return StorageFaultModel(
            fail_prob=self.storage_fail_prob,
            windows=[tuple(w) for w in self.storage_windows],
            retry=StorageRetryPolicy(**self.storage_retry),
        )


@dataclass
class StorageRealismConfig:
    """Storage-stack optimisations layered over the flat cost model.

    The seed's stable store charges one full-latency operation per write
    and a full ``state_bytes`` transfer per checkpoint.  This config
    enables the three classic optimisations real logging stacks use to
    amortise those costs -- incremental (copy-on-write) checkpoints,
    group commit of log appends, and log compaction with reclaimed-space
    accounting.  A config with ``storage_realism=None`` (the default)
    never builds any of this machinery, keeping the default path
    byte-identical to the seed.
    """

    # -- incremental checkpoints -----------------------------------------
    #: write delta checkpoints sized by the process's dirty bytes instead
    #: of a full ``state_bytes`` image every time
    incremental_checkpoints: bool = False
    #: force a full checkpoint every k-th checkpoint, bounding the delta
    #: chain a restart must read back
    full_checkpoint_every: int = 8
    #: modelled bytes dirtied by one delivery (saturates at state_bytes)
    dirty_bytes_per_delivery: int = 65_536
    #: floor on a delta segment's charged size (page-table + metadata)
    min_delta_bytes: int = 4_096

    # -- group commit ------------------------------------------------------
    #: coalesce pending log appends into one stable operation
    group_commit: bool = False
    #: flush window: an append waits at most this long before its batch
    #: is forced to the device
    batch_window: float = 0.005
    #: flush immediately once this many appends are queued
    batch_max_ops: int = 32
    #: flush immediately once this many bytes are queued
    batch_max_bytes: int = 262_144

    # -- compaction / GC ---------------------------------------------------
    #: reclaim checkpoint-covered log entries and superseded snapshots
    #: (changes replay-read sizes, so it is opt-in per run)
    log_compaction: bool = False

    # ------------------------------------------------------------------
    def any_enabled(self) -> bool:
        """Whether any optimisation deviates from the seed's flat model."""
        return bool(
            self.incremental_checkpoints or self.group_commit or self.log_compaction
        )

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.full_checkpoint_every < 1:
            raise ValueError(
                f"full_checkpoint_every must be >= 1, got {self.full_checkpoint_every!r}"
            )
        if self.dirty_bytes_per_delivery < 0:
            raise ValueError("dirty_bytes_per_delivery must be non-negative")
        if self.min_delta_bytes < 0:
            raise ValueError("min_delta_bytes must be non-negative")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.batch_max_ops < 1:
            raise ValueError(f"batch_max_ops must be >= 1, got {self.batch_max_ops!r}")
        if self.batch_max_bytes < 1:
            raise ValueError(
                f"batch_max_bytes must be >= 1, got {self.batch_max_bytes!r}"
            )

    def build_group_commit(self):
        """Materialize the :class:`~repro.storage.stable.GroupCommitPolicy`
        (or ``None`` when group commit is disabled)."""
        if not self.group_commit:
            return None
        from repro.storage.stable import GroupCommitPolicy

        return GroupCommitPolicy(
            window=self.batch_window,
            max_ops=self.batch_max_ops,
            max_bytes=self.batch_max_bytes,
        )


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive hybrid-logging stack (``protocol="adaptive"``).

    The adaptive protocol migrates each process independently between
    pessimistic / FBL(f) / optimistic logging modes at runtime under a
    byte-cost model (see :mod:`repro.protocols.adaptive`).  Everything
    here is count-based or a pure model constant — never wall-clock —
    so replayed decisions regenerate exactly.
    """

    #: mode every process starts in: pessimistic | fbl | optimistic
    initial_mode: str = "fbl"
    #: replication degree of the fbl mode (and of piggyback stability)
    f: int = 2
    #: controller cadence, in own deliveries
    eval_every: int = 16
    #: minimum own deliveries between two switches of one process
    min_dwell: int = 48
    #: switch only when best-mode cost < hysteresis * current-mode cost
    hysteresis: float = 0.9
    #: modelled on-disk bytes of one determinant record in the adaptive log
    det_record_bytes: int = 32

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        from repro.protocols.adaptive import MODES

        if self.initial_mode not in MODES:
            raise ValueError(
                f"initial_mode must be one of {MODES}, got {self.initial_mode!r}"
            )
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f!r}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every!r}")
        if self.min_dwell < 0:
            raise ValueError(f"min_dwell must be >= 0, got {self.min_dwell!r}")
        if not (0.0 < self.hysteresis <= 1.0):
            raise ValueError(f"hysteresis must be in (0, 1], got {self.hysteresis!r}")
        if self.det_record_bytes < 1:
            raise ValueError(
                f"det_record_bytes must be >= 1, got {self.det_record_bytes!r}"
            )

    def protocol_kwargs(self) -> Dict[str, Any]:
        """Constructor kwargs for :class:`repro.protocols.adaptive.AdaptiveLogging`."""
        return {
            "initial_mode": self.initial_mode,
            "f": self.f,
            "eval_every": self.eval_every,
            "min_dwell": self.min_dwell,
            "hysteresis": self.hysteresis,
            "det_record_bytes": self.det_record_bytes,
        }


@dataclass
class SystemConfig:
    """Everything needed to build and run one simulated system."""

    # -- topology ---------------------------------------------------------
    #: number of application processes (the paper used eight)
    n: int = 8
    #: root seed for every random stream in the run
    seed: int = 0
    #: label used in result tables
    name: str = "run"

    # -- protocol stack ---------------------------------------------------
    #: protocol name: fbl | sender_based | manetho | pessimistic |
    #: optimistic | coordinated
    protocol: str = "fbl"
    #: protocol construction parameters (e.g. {"f": 2} for fbl)
    protocol_params: Dict[str, Any] = field(default_factory=dict)
    #: recovery algorithm: nonblocking (the paper's new algorithm) |
    #: blocking (the message-optimal baseline) | local | optimistic |
    #: coordinated
    recovery: str = "nonblocking"

    # -- workload -----------------------------------------------------------
    #: workload name, see repro.workloads
    workload: str = "uniform"
    workload_params: Dict[str, Any] = field(default_factory=dict)

    # -- failure model ------------------------------------------------------
    #: scheduled / triggered crashes
    crashes: List[CrashPlan] = field(default_factory=list)
    #: additional fault plans (link faults, partitions, storage outages)
    injections: List[TriggeredPlan] = field(default_factory=list)
    #: static fault environment; None = the seed's perfect network/storage
    faults: Optional[FaultConfig] = None
    #: the paper's "several seconds of timeouts and retrials"
    detection_delay: float = DEFAULT_DETECTION_DELAY

    # -- transport ----------------------------------------------------------
    #: "raw" = the seed's perfect channels; "reliable" = layer the
    #: retransmitting transport of repro.net.transport over the network
    transport: str = "raw"
    #: kwargs for repro.net.transport.TransportParams
    transport_params: Dict[str, Any] = field(default_factory=dict)

    # -- hardware model -------------------------------------------------------
    #: process image size ("about one Mbyte" in the paper)
    state_bytes: int = 1_000_000
    #: per-operation stable-storage latency (seek + rotation)
    storage_op_latency: float = DEFAULT_OP_LATENCY
    #: stable-storage bandwidth, bytes/second
    storage_bandwidth: float = DEFAULT_BANDWIDTH
    #: network parameters (passed to AtmLinkModel); None = paper defaults
    network_params: Dict[str, Any] = field(default_factory=dict)
    #: bytes charged per message header (addresses, type, incarnation);
    #: the default matches the seed's hardcoded wire-cost model
    header_bytes: int = 64
    #: bytes charged per piggybacked determinant
    determinant_bytes: int = 32
    #: storage-stack optimisations (incremental checkpoints, group
    #: commit, compaction); None = the seed's flat cost model
    storage_realism: Optional[StorageRealismConfig] = None
    #: knobs of the adaptive hybrid-logging stack; only read when
    #: ``protocol="adaptive"`` (None = that protocol's defaults)
    adaptive: Optional[AdaptiveConfig] = None

    # -- policies ----------------------------------------------------------
    #: take a checkpoint every k deliveries (0 = only the initial one)
    checkpoint_every: int = 0
    #: protocol message types deferred while a node is blocked
    blocked_protocol_types: FrozenSet[str] = frozenset({"retransmit_data"})

    # -- observability ------------------------------------------------------
    #: record causal spans (repro.sim.spans) into the trace
    spans: bool = False
    #: enable wall-clock sim-kernel profiling (repro.sim.profile)
    profile: bool = False
    #: retain the full trace event list; False keeps only counters
    #: (the counters-only fast path for large parameter sweeps)
    keep_trace_events: bool = True
    #: stream retained trace events to this JSONL file, keeping only a
    #: bounded window in memory (flat-memory tracing at any horizon);
    #: the file is `repro trace`-compatible.  Only meaningful with
    #: keep_trace_events on
    trace_spill_path: Optional[str] = None
    #: in-memory window size for the trace spill log
    trace_spill_window: int = 10_000
    #: run the online invariant monitor (repro.sanitizer) over the trace
    #: stream; implies spans so violations carry causal span chains
    sanitize: bool = False
    #: perturb same-instant event ordering in the kernel with this seed
    #: (None = the seed's exact FIFO order); the chaos harness's perturbed
    #: replica uses it to flag hidden schedule races
    tiebreak_seed: Optional[int] = None
    #: attribute every wire/storage byte to a (process, peer, purpose,
    #: phase) account (repro.obs); conservation-checked, zero-cost off
    cost_ledger: bool = False
    #: sample the cost ledger into windows of this many virtual seconds
    #: (RunResult.extra["timeseries"]); None = no sampler; setting it
    #: implies cost_ledger
    timeseries_window: Optional[float] = None
    #: bound on retained samples: past it, adjacent windows merge and
    #: the width doubles (memory stays flat at any horizon)
    timeseries_max_samples: int = 512

    # -- run control -----------------------------------------------------------
    #: stop at this virtual time; None runs to quiescence
    run_until: Optional[float] = None
    #: safety valve on total events
    max_events: int = 5_000_000

    # ------------------------------------------------------------------
    @property
    def sequencer_id(self) -> int:
        """Node id of the never-failing ordinal service."""
        return self.n

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.n < 2:
            raise ValueError(f"need at least two processes, got n={self.n}")
        # each lookup imports that name's module: validating a config
        # loads exactly its stack
        protocol = PROTOCOLS.get(self.protocol)
        if protocol is None:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {sorted(PROTOCOLS)}"
            )
        if RECOVERY_MANAGERS.get(self.recovery) is None:
            raise ValueError(
                f"unknown recovery {self.recovery!r}; "
                f"choose from {sorted(RECOVERY_MANAGERS)}"
            )
        supported = protocol.supported_recovery
        if self.recovery not in supported:
            raise ValueError(
                f"protocol {self.protocol!r} supports recovery {supported}, "
                f"not {self.recovery!r}"
            )
        for plan in self.crashes:
            if not 0 <= plan.node < self.n:
                raise ValueError(f"crash plan references unknown node {plan.node}")
        if self.transport not in ("raw", "reliable"):
            raise ValueError(
                f"transport must be 'raw' or 'reliable', got {self.transport!r}"
            )
        if self.faults is not None:
            self.faults.validate()
            if (
                self.transport == "raw"
                and (self.faults.loss_prob or self.faults.partitions)
            ):
                # loss without retransmission silently stalls protocols that
                # assume reliable channels; make the footgun explicit
                raise ValueError(
                    "message loss/partitions need transport='reliable' "
                    "(the protocols assume reliable channels)"
                )
        if self.detection_delay < 0:
            raise ValueError("detection_delay must be non-negative")
        if self.state_bytes <= 0:
            raise ValueError("state_bytes must be positive")
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be non-negative")
        if self.determinant_bytes < 0:
            raise ValueError("determinant_bytes must be non-negative")
        if self.timeseries_window is not None and self.timeseries_window <= 0:
            raise ValueError("timeseries_window must be positive")
        if self.timeseries_max_samples < 2:
            raise ValueError("timeseries_max_samples must be >= 2")
        if self.trace_spill_window < 1:
            raise ValueError("trace_spill_window must be >= 1")
        if self.storage_realism is not None:
            self.storage_realism.validate()
        if self.adaptive is not None:
            self.adaptive.validate()

    def describe(self) -> str:
        """One-line human summary for reports."""
        f = self.protocol_params.get("f")
        proto = self.protocol if f is None else f"{self.protocol}(f={f})"
        return (
            f"{self.name}: n={self.n} {proto} + {self.recovery} recovery, "
            f"workload={self.workload}, crashes={len(self.crashes)}"
        )
