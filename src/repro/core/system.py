"""System assembly and execution.

:func:`build_system` wires every substrate together from a
:class:`~repro.core.config.SystemConfig`; :class:`System` runs the
simulation and produces a :class:`~repro.core.metrics.RunResult` with the
paper's measurements plus the oracle's consistency verdict.
"""

from __future__ import annotations

from contextlib import closing
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.metrics import MetricsCollector, RunResult
from repro.core.metrics_registry import MetricsRegistry
from repro.core.node import Node, NodeState
from repro.core.oracle import ConsistencyOracle
from repro.core.output import OutputDevice
from repro.net.latency import AtmLinkModel
from repro.net.network import Network
from repro.net.topology import Topology
from repro.procs.failure import FailureDetector, FailureInjector
from repro.procs.process import ApplicationProcess
from repro.protocols import PROTOCOLS
from repro.recovery import RECOVERY_MANAGERS
from repro.recovery.sequencer import Sequencer
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.spans import SpanChainTracker
from repro.sim.trace import TraceRecorder
from repro.workloads import make_workload


def _build_protocol(config: SystemConfig):
    params = dict(config.protocol_params)
    if config.protocol == "manetho":
        params.setdefault("n_nodes", config.n)
    if config.protocol == "adaptive" and config.adaptive is not None:
        for key, value in config.adaptive.protocol_kwargs().items():
            params.setdefault(key, value)
    return PROTOCOLS[config.protocol](**params)


class System:
    """A fully wired simulated system, ready to run."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator(tiebreak_seed=config.tiebreak_seed)
        self.rngs = RngRegistry(config.seed)
        self.trace = TraceRecorder(
            keep_events=config.keep_trace_events,
            spill_path=config.trace_spill_path,
            spill_window=config.trace_spill_window,
        )
        if config.spans or config.sanitize:
            # the sanitizer needs span events to attach causal chains
            self.trace.spans.enable()
        self.profiler = None
        if config.profile:
            from repro.sim.profile import SimProfiler

            self.profiler = SimProfiler().attach(self.sim)
        # a live process rolls back after the fact under these two stacks
        self.oracle = ConsistencyOracle(
            self.sim, transient_orphans=config.protocol in ("optimistic", "coordinated"))
        self.sanitizer = None
        chains = None
        if config.sanitize:
            from repro.sanitizer.monitor import Sanitizer

            # the run's one causal record: the oracle writes, the monitor reads
            self.sanitizer = Sanitizer(config, self.oracle.graph)
            self.sanitizer.attach(self.trace)
            chains = self.sanitizer.chains
        elif self.trace.spans.enabled:
            chains = SpanChainTracker()
            for action in ("begin", "end"):
                self.trace.subscribe(chains.on_event, f"span.{action}")
        # one span tracker serves every observer's findings and stacks
        self.oracle.chains = chains
        self.registry = MetricsRegistry()
        self.metrics = MetricsCollector()

        # topology covers the application nodes plus the sequencer
        self.topology = Topology(range(config.n + 1))
        fault_model = (
            config.faults.build_network_model() if config.faults is not None else None
        )
        self.network = Network(
            self.sim,
            self.topology,
            latency=AtmLinkModel(**config.network_params),
            rngs=self.rngs,
            trace=self.trace,
            faults=fault_model,
            header_bytes=config.header_bytes,
            determinant_bytes=config.determinant_bytes,
        )
        self.network.size_histogram = self.registry.histogram("net.message_bytes")
        self.transport = None
        if config.transport == "reliable":
            from repro.net.transport import ReliableTransport, TransportParams

            self.transport = ReliableTransport(
                self.sim,
                self.network,
                params=TransportParams(**config.transport_params),
                trace=self.trace,
            )
        self.detector = FailureDetector(
            self.sim,
            detection_delay=config.detection_delay,
            trace=self.trace,
        )
        self.sequencer = Sequencer(
            config.sequencer_id, self.sim, self.network, self.trace
        )

        self.output_device = OutputDevice()
        workload = make_workload(config.workload, **config.workload_params)
        self.nodes: List[Node] = []
        realism = config.storage_realism
        dirty_per_delivery = (
            realism.dirty_bytes_per_delivery
            if realism is not None and realism.incremental_checkpoints
            else 0
        )
        for node_id in range(config.n):
            app = ApplicationProcess(
                node_id,
                config.n,
                workload,
                state_bytes=config.state_bytes,
                dirty_bytes_per_delivery=dirty_per_delivery,
            )
            protocol = _build_protocol(config)
            recovery = RECOVERY_MANAGERS[config.recovery]()
            node = Node(
                node_id=node_id,
                sim=self.sim,
                network=self.network,
                detector=self.detector,
                trace=self.trace,
                metrics=self.metrics,
                oracle=self.oracle,
                config=config,
                app=app,
                protocol=protocol,
                recovery=recovery,
                output_device=self.output_device,
            )
            node.storage.registry = self.registry
            self.nodes.append(node)
        self.oracle.nodes = self.nodes

        # communication-cost ledger: host-side attribution of every wire
        # and storage byte to (process, peer, purpose, phase) accounts.
        # It never schedules events or draws randomness, so enabling it
        # leaves runs byte-identical.
        self.cost = None
        self.cost_sampler = None
        if config.cost_ledger or config.timeseries_window is not None:
            from repro.obs import CostLedger, CostSampler

            self.cost = CostLedger()
            self.cost.spans = chains
            if config.timeseries_window is not None:
                self.cost_sampler = CostSampler(
                    self.cost,
                    config.timeseries_window,
                    max_samples=config.timeseries_max_samples,
                    trace=self.trace,
                )
            self.network.cost = self.cost
            for node in self.nodes:
                node.storage.cost = self.cost
            self.metrics.cost = self.cost

        # detector events fan out to every node's recovery manager
        self.detector.add_listener(self._on_peer_status)

        self.injector = FailureInjector(
            self.sim,
            self.trace,
            self.crash_node,
            plans=list(config.crashes) + list(config.injections),
            network=self.network,
            storages={node.node_id: node.storage for node in self.nodes},
        )
        self._started = False
        self._registry_finalized = False

    # ------------------------------------------------------------------
    def _on_peer_status(self, node_id: int, status: str) -> None:
        for node in self.nodes:
            if node.node_id != node_id and node.state != NodeState.CRASHED:
                node.recovery.on_peer_status(node_id, status)

    def crash_node(self, node_id: int) -> None:
        """Crash one application node (no-op if already crashed)."""
        self.nodes[node_id].crash()

    def node(self, node_id: int) -> Node:
        """Access one node (tests and examples)."""
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the sequencer and every node, and arm the failure plan."""
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        self.sequencer.start()
        for node in self.nodes:
            node.start()
        self.injector.arm()

    def run(self) -> RunResult:
        """Execute to quiescence (or the configured horizon) and summarize."""
        if not self._started:
            self.start()
        if self.config.run_until is not None:
            self.sim.run(until=self.config.run_until, max_events=self.config.max_events)
        else:
            self.sim.run(max_events=self.config.max_events)
            if self.sim.pending_events and self.sim.events_processed >= self.config.max_events:
                raise RuntimeError(
                    f"run exceeded max_events={self.config.max_events}; "
                    f"likely a livelock in the configuration"
                )
        return self.summarize()

    # ------------------------------------------------------------------
    def summarize(self) -> RunResult:
        """Build the RunResult (including the oracle's safety check)."""
        self.metrics.close_open_blocks(self.sim.now)
        # flush any trace spill file so it holds the complete run
        self.trace.finalize()

        all_live = all(node.is_live for node in self.nodes)
        if all_live:
            self.oracle.check_safety(
                {node.node_id: node.app.delivery_history for node in self.nodes}
            )
            self.oracle.check_outputs(self.output_device.outputs)

        storage_ops: Dict[int, Dict[str, Any]] = {}
        for node in self.nodes:
            stats = node.storage.stats
            store = node.checkpoints
            storage_ops[node.node_id] = {
                "reads": stats.reads,
                "writes": stats.writes,
                "bytes_read": stats.bytes_read,
                "bytes_written": stats.bytes_written,
                "sync_stall": stats.sync_stall_time.get(node.node_id, 0.0),
                "faults_injected": stats.faults_injected,
                "retry_time": stats.retry_time,
                "busy_time": stats.busy_time,
                # group commit
                "batched_appends": stats.batched_appends,
                "batch_flushes": stats.batch_flushes,
                "batch_lost": stats.batch_lost,
                # GC / compaction
                "bytes_reclaimed": stats.bytes_reclaimed,
                "reclaims": stats.reclaims,
                # incremental checkpoint chain
                "full_segments": store.full_segments,
                "delta_segments": store.delta_segments,
                "full_bytes_written": store.full_bytes_written,
                "delta_bytes_written": store.delta_bytes_written,
                "chain_length": store.chain_length,
            }

        piggyback_count = sum(
            node.protocol.piggyback_determinants_sent for node in self.nodes
        )
        extra = {
            "final_delivered_counts": {
                node.node_id: node.app.delivered_count for node in self.nodes
            },
            "piggyback_bytes": self.network.determinant_bytes * piggyback_count,
            "piggyback_determinants": piggyback_count,
            "safety_checked": all_live,
            "non_live_nodes": [
                node.node_id for node in self.nodes if not node.is_live
            ],
            "outputs": {
                "count": len(self.output_device),
                "duplicates_filtered": self.output_device.duplicates_filtered,
                "latencies": self.output_device.latencies(),
            },
            "protocol_stats": {
                node.node_id: node.protocol.stats() for node in self.nodes
            },
            "recovery_stats": {
                node.node_id: node.recovery.stats() for node in self.nodes
            },
            "trace_counters": dict(self.trace.counters),
            "events_processed": self.sim.events_processed,
            "kernel": {
                "live_events": self.sim.live_events,
                "pending_events": self.sim.pending_events,
                "compactions": self.sim.compactions,
                "pool_reuses": self.sim.pool_reuses,
                "pool_size": self.sim.pool_size,
            },
        }
        if self.transport is not None:
            extra["transport_stats"] = self.transport.stats.as_dict()

        # counters are derived once per run from the counts of record
        # (the *Stats, the episodes); only the histograms net and
        # storage feed live
        if not self._registry_finalized:
            self._registry_finalized = True
            counter = self.registry.counter
            net = self.network.stats
            counter("net.messages_sent").inc(net.total_messages() + net.retransmits)
            counter("net.bytes_sent").inc(net.total_bytes() + net.retransmit_bytes)
            if self.transport is not None:
                # the transport is the only sender of retransmissions
                counter("transport.retransmits").inc(net.retransmits)
                counter("transport.acks_sent").inc(self.transport.stats.acks_sent)
            devices = [node.storage.stats for node in self.nodes]
            for name, count, value in (
                ("ops", "operations", "operations"),
                ("bytes", "operations", "total_bytes"),
                ("batched_appends", "batched_appends", "batched_appends"),
                ("batch_flushes", "batch_flushes", "batch_flushes"),
                ("bytes_reclaimed", "reclaims", "bytes_reclaimed"),
            ):
                # a storage counter appears once its device count has moved
                if any(getattr(stats, count) for stats in devices):
                    counter(f"storage.{name}").inc(
                        sum(getattr(stats, value) for stats in devices)
                    )
            episodes = self.metrics.episodes
            episode_hist = self.registry.histogram("recovery.episode_duration")
            for episode in episodes:
                if episode.complete:
                    episode_hist.observe(episode.total_duration)
            block_hist = self.registry.histogram("recovery.block_duration")
            for interval in self.metrics.block_intervals:
                if interval.end is not None:
                    block_hist.observe(interval.duration)
            counter("recovery.episodes").inc(len(episodes))
            counter("recovery.gather_restarts").inc(sum(e.gather_restarts for e in episodes))
            # churn counters: handoffs are episode-attributed;
            # stale-epoch drops also happen at live nodes and the
            # sequencer, so they are summed from the managers directly
            counter("recovery.leader_handoffs").inc(sum(e.leader_handoffs for e in episodes))
            stale_drops = sum(node.recovery.stale_epoch_drops for node in self.nodes)
            if self.sequencer is not None:
                stale_drops += self.sequencer.stale_epoch_drops
            counter("recovery.stale_epoch_drops").inc(stale_drops)
            counter("recovery.reply_invalidations").inc(
                sum(e.reply_invalidations for e in episodes)
            )
            counter("protocol.piggyback_determinants").inc(piggyback_count)
        self.registry.gauge("sim.events_processed").set(self.sim.events_processed)
        extra["metrics"] = self.registry.snapshot()
        if self.cost is not None:
            if self.cost_sampler is not None:
                self.cost_sampler.finalize(self.sim.now)
                extra["timeseries"] = list(self.cost_sampler.samples)
            extra["cost"] = self.cost.summary(
                self.network.stats,
                {node.node_id: node.storage.stats for node in self.nodes},
            )
        if self.profiler is not None:
            extra["profile"] = self.profiler.snapshot()
        if self.sanitizer is not None:
            self.sanitizer.finalize()
            extra["sanitizer"] = self.sanitizer.report()

        return RunResult(
            config_name=self.config.name,
            end_time=self.sim.now,
            deliveries=dict(self.metrics.deliveries),
            episodes=list(self.metrics.episodes),
            blocked_time_by_node=self.metrics.blocked_time_by_node(),
            network=self.network.stats,
            storage_ops=storage_ops,
            oracle_violations=list(self.oracle.violations),
            digests={node.node_id: node.app.digest for node in self.nodes},
            orphan_rollbacks=self.metrics.orphan_rollbacks,
            extra=extra,
        )

    def close(self) -> None:
        """Release the run: close the spill file and drop the references
        that make the wired system one reference cycle (nodes <-> their
        protocols, the event heap's bound callbacks, timers, trace
        subscribers), so refcounting frees it once the caller lets go and
        the collector never has to find it.  Take the :class:`RunResult`
        first; the System is unusable afterwards."""
        spill = self.trace.spill
        if spill is not None:
            spill.close()
        for node in self.nodes:
            for name in Node.__slots__:
                setattr(node, name, None)
        for part in (self.sim, self.network, self.transport, self.trace, self.sanitizer, self.cost):
            if part is not None:
                vars(part).clear()
        vars(self).clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"System({self.config.describe()})"


def build_system(config: SystemConfig) -> System:
    """Construct (but do not run) a system from its configuration."""
    return System(config)


def run_config(config: SystemConfig) -> RunResult:
    """Build, run to completion, and summarize in one call."""
    with closing(System(config)) as system:
        return system.run()
