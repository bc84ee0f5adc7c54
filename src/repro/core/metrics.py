"""Run measurements.

The paper's evaluation reports, per experiment: how long failed processes
took to recover, how long each *live* process was blocked (50 ms for the
blocking algorithm on one failure; zero for the new algorithm), and the
communication overhead of recovery (milliseconds' worth of extra control
messages).  :class:`MetricsCollector` gathers exactly those quantities;
:class:`RunResult` is the immutable summary a benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.net.network import MessageKind, NetworkStats


@dataclass
class RecoveryEpisode:
    """One crash-to-recovered episode of one node."""

    node: int
    crash_time: float
    restart_time: Optional[float] = None  # detection fired, restore begins
    restored_time: Optional[float] = None  # checkpoint reloaded
    replay_start_time: Optional[float] = None  # depinfo in hand
    complete_time: Optional[float] = None  # process live again
    gather_restarts: int = 0  # times the leader restarted the gather
    leader_handoffs: int = 0  # rounds adopted from a dead leader
    reply_invalidations: int = 0  # single replies voided by a failure
    was_leader: bool = False
    replayed_deliveries: int = 0

    @property
    def detection_duration(self) -> Optional[float]:
        if self.restart_time is None:
            return None
        return self.restart_time - self.crash_time

    @property
    def restore_duration(self) -> Optional[float]:
        if self.restored_time is None or self.restart_time is None:
            return None
        return self.restored_time - self.restart_time

    @property
    def total_duration(self) -> Optional[float]:
        """Crash to live again -- the paper's "time to recover"."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.crash_time

    @property
    def complete(self) -> bool:
        return self.complete_time is not None


@dataclass
class BlockInterval:
    """A period during which a live process could not make progress."""

    node: int
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError("interval still open")
        return self.end - self.start


class MetricsCollector:
    """Accumulates per-run measurements as the simulation executes."""

    def __init__(self) -> None:
        self.episodes: List[RecoveryEpisode] = []
        self._open_episode: Dict[int, RecoveryEpisode] = {}
        self.block_intervals: List[BlockInterval] = []
        self._open_block: Dict[int, BlockInterval] = {}
        self.deliveries: Dict[int, int] = {}
        self.replayed: Dict[int, int] = {}
        self.rolled_back_deliveries: int = 0
        self.orphan_rollbacks: int = 0
        #: optional repro.obs.CostLedger (set by System); episode starts
        #: and ends move the ledger's phase between failure-free and the
        #: numbered recovery episodes
        self.cost = None

    # -- recovery episodes ---------------------------------------------
    def start_episode(self, node: int, crash_time: float) -> RecoveryEpisode:
        episode = RecoveryEpisode(node=node, crash_time=crash_time)
        self.episodes.append(episode)
        self._open_episode[node] = episode
        if self.cost is not None:
            self.cost.begin_episode(node)
        return episode

    def episode_of(self, node: int) -> Optional[RecoveryEpisode]:
        """The node's in-progress episode, if any."""
        return self._open_episode.get(node)

    def finish_episode(self, node: int, complete_time: float) -> None:
        episode = self._open_episode.pop(node, None)
        if episode is not None:
            episode.complete_time = complete_time
            if self.cost is not None:
                self.cost.end_episode(node)

    # -- blocking -------------------------------------------------------
    def block_start(self, node: int, time: float) -> None:
        if node not in self._open_block:
            interval = BlockInterval(node=node, start=time)
            self.block_intervals.append(interval)
            self._open_block[node] = interval

    def block_end(self, node: int, time: float) -> None:
        interval = self._open_block.pop(node, None)
        if interval is not None:
            interval.end = time

    def close_open_blocks(self, time: float) -> None:
        """End-of-run hygiene: close any interval still open."""
        for node in list(self._open_block):
            self.block_end(node, time)

    def blocked_time(self, node: int) -> float:
        """Total blocked seconds for one node (closed intervals only)."""
        return sum(
            iv.duration for iv in self.block_intervals
            if iv.node == node and iv.end is not None
        )

    def blocked_time_by_node(self) -> Dict[int, float]:
        totals: Dict[int, float] = {}
        for iv in self.block_intervals:
            if iv.end is not None:
                totals[iv.node] = totals.get(iv.node, 0.0) + iv.duration
        return totals

    # -- progress --------------------------------------------------------
    def count_delivery(self, node: int, during_replay: bool) -> None:
        self.deliveries[node] = self.deliveries.get(node, 0) + 1
        if during_replay:
            self.replayed[node] = self.replayed.get(node, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsCollector(episodes={len(self.episodes)}, "
            f"blocks={len(self.block_intervals)})"
        )


@dataclass
class RunResult:
    """Summary of one completed simulation run."""

    config_name: str
    end_time: float
    deliveries: Dict[int, int]
    episodes: List[RecoveryEpisode]
    blocked_time_by_node: Dict[int, float]
    network: NetworkStats
    storage_ops: Dict[int, Dict[str, Any]]
    oracle_violations: List[Any]
    digests: Dict[int, str]
    orphan_rollbacks: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    # -- derived quantities the benchmarks report -----------------------
    @property
    def total_deliveries(self) -> int:
        return sum(self.deliveries.values())

    @property
    def final_progress(self) -> int:
        """Sum of post-run delivered counts (replays not double-counted)."""
        counts = self.extra.get("final_delivered_counts", {})
        return sum(counts.values())

    @property
    def total_blocked_time(self) -> float:
        return sum(self.blocked_time_by_node.values())

    def mean_blocked_time(self, exclude: Optional[List[int]] = None) -> float:
        """Average blocked time over live processes.

        ``exclude`` lists the nodes that crashed (their stall is recovery,
        not intrusion).
        """
        excluded = set(exclude or [])
        nodes = [n for n in self.deliveries if n not in excluded]
        if not nodes:
            return 0.0
        return sum(self.blocked_time_by_node.get(n, 0.0) for n in nodes) / len(nodes)

    def recovery_durations(self) -> List[float]:
        return [e.total_duration for e in self.episodes if e.complete]

    def recovery_messages(self) -> int:
        return self.network.of_kind(MessageKind.RECOVERY)[0]

    def recovery_bytes(self) -> int:
        return self.network.of_kind(MessageKind.RECOVERY)[1]

    # -- reliability overhead (faulty-network runs) ----------------------
    def retransmissions(self) -> int:
        """Transport retransmissions (0 on the default perfect network)."""
        return self.network.retransmits

    def retransmission_bytes(self) -> int:
        return self.network.retransmit_bytes

    def transport_messages(self) -> int:
        """Transport control messages (cumulative acks)."""
        return self.network.of_kind(MessageKind.TRANSPORT)[0]

    def transport_bytes(self) -> int:
        return self.network.of_kind(MessageKind.TRANSPORT)[1]

    def reliability_overhead_bytes(self) -> int:
        """Total wire bytes spent re-establishing reliable channels:
        retransmitted copies plus acknowledgement traffic."""
        return self.retransmission_bytes() + self.transport_bytes()

    @property
    def consistent(self) -> bool:
        """No oracle violation was detected during or after the run."""
        return not self.oracle_violations

    def sync_stall_time(self, node: int) -> float:
        """Synchronous stable-storage stall charged to ``node``."""
        ops = self.storage_ops.get(node, {})
        return ops.get("sync_stall", 0.0)

    # -- output commit ---------------------------------------------------
    def output_latencies(self) -> List[float]:
        """Commit latency of every output released to the outside world."""
        return list(self.extra.get("outputs", {}).get("latencies", []))

    @property
    def outputs_committed(self) -> int:
        return self.extra.get("outputs", {}).get("count", 0)

    @property
    def output_duplicates_filtered(self) -> int:
        return self.extra.get("outputs", {}).get("duplicates_filtered", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunResult({self.config_name}, t={self.end_time:.3f}, "
            f"deliveries={self.total_deliveries}, "
            f"episodes={len(self.episodes)}, consistent={self.consistent})"
        )
