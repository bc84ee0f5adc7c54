"""Stable storage with realistic (mid-90s) access costs.

The paper's thesis is that "latency in accessing stable storage" has
become a first-class cost of recovery.  :class:`StableStorage` models a
per-node stable store (a local disk, or a survivable storage service)
with a fixed per-operation latency plus a size-proportional transfer
time, serialized per device.  Default parameters are chosen so restoring
the paper's "about one Mbyte" process state costs on the order of a
second -- consistent with the evaluation's "restoring its state may take
tens of seconds or a few minutes" for large processes and its measured
~5 s recovery dominated by detection plus state restore.

Contents written to stable storage survive crashes; the data itself is
held in plain Python dictionaries keyed by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.rng import derive_seed
from repro.sim.trace import TraceRecorder

#: Per-operation latency (seek + rotation + controller), seconds.
DEFAULT_OP_LATENCY = 0.020
#: Sustained transfer bandwidth, bytes/second (mid-90s SCSI disk).
DEFAULT_BANDWIDTH = 1_000_000.0


class StorageFaultError(RuntimeError):
    """An operation exhausted its retry budget (a non-transient fault)."""


@dataclass
class GroupCommitPolicy:
    """Flush policy for group-committed log appends.

    Appends queue in a volatile write buffer and are flushed to the
    device as one operation when the oldest queued append has waited
    ``window`` seconds, or immediately once ``max_ops`` appends or
    ``max_bytes`` bytes are queued.  One batch costs a single
    per-operation latency plus the transfer time of its total bytes --
    this is the amortisation real logging stacks get from group commit.
    """

    window: float = 0.005
    max_ops: int = 32
    max_bytes: int = 262_144

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(f"window must be non-negative, got {self.window!r}")
        if self.max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {self.max_ops!r}")
        if self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {self.max_bytes!r}")


@dataclass
class StorageRetryPolicy:
    """Retry-with-backoff applied to faulted operations.

    A failed attempt still costs the full operation duration (the
    controller noticed the error only at the end), then waits
    ``base_delay * multiplier**attempt`` (capped at ``max_delay``) before
    trying again.  ``max_attempts`` bounds the total number of attempts;
    exhausting it raises :class:`StorageFaultError` -- transient fault
    configurations should make that practically impossible.
    """

    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.1
    max_attempts: int = 50

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier!r}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return min(self.base_delay * (self.multiplier ** attempt), self.max_delay)


@dataclass
class StorageFaultModel:
    """Transient I/O fault injection for one stable-storage device.

    ``fail_prob`` fails each attempt independently (drawn from the
    device's seeded stream); ``fail_ops`` fails specific operation
    indices (0-based, matching the device's op counter, deterministic,
    first attempt only); ``windows`` fail every attempt
    started inside ``[start, end)`` -- an ``end`` of ``None`` never
    heals, so pair it with a finite retry budget on purpose.
    """

    fail_prob: float = 0.0
    fail_ops: Tuple[int, ...] = ()
    windows: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    retry: StorageRetryPolicy = field(default_factory=StorageRetryPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fail_prob < 1.0:
            raise ValueError(f"fail_prob must be in [0, 1), got {self.fail_prob!r}")
        for start, end in self.windows:
            if end is not None and end < start:
                raise ValueError(f"fault window heals before it starts: {start} > {end}")

    def add_window(self, start: float, end: Optional[float]) -> None:
        """Add an outage window; ``end=None`` means it never heals."""
        self.windows.append((start, end))

    def attempt_fails(
        self, op_index: int, attempt: int, at: float, rng: random.Random
    ) -> bool:
        """Whether attempt number ``attempt`` (0-based) of op ``op_index``
        starting at time ``at`` fails.  ``fail_ops`` entries are transient:
        they fail only the first attempt, the retry succeeds."""
        if attempt == 0 and op_index in self.fail_ops:
            return True
        for start, end in self.windows:
            if at >= start and (end is None or at < end):
                return True
        return bool(self.fail_prob) and rng.random() < self.fail_prob


@dataclass
class StableStorageStats:
    """Operation counters for one stable-storage device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    #: transient I/O faults injected (failed attempts that were retried)
    faults_injected: int = 0
    #: extra device time spent on failed attempts and backoff waits
    retry_time: float = 0.0
    #: time callers spent waiting for synchronous operations, by node
    sync_stall_time: Dict[int, float] = field(default_factory=dict)
    #: log appends absorbed into group-commit batches
    batched_appends: int = 0
    #: group-commit batches flushed to the device
    batch_flushes: int = 0
    #: queued appends lost to a crash before their batch flushed
    batch_lost: int = 0
    #: space reclaimed by GC / compaction (metadata operations)
    bytes_reclaimed: int = 0
    #: reclaim operations (checkpoint supersession, log compaction)
    reclaims: int = 0

    def add_stall(self, node: int, duration: float) -> None:
        """Charge ``duration`` seconds of synchronous wait to ``node``."""
        self.sync_stall_time[node] = self.sync_stall_time.get(node, 0.0) + duration

    @property
    def operations(self) -> int:
        """Total device operations (reads + writes)."""
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        """Total bytes transferred (read + written)."""
        return self.bytes_read + self.bytes_written


class StableStorage:
    """An asynchronous stable-storage device attached to one node.

    Operations complete via callback after the modelled delay; the device
    serializes concurrent operations (one head).  Use ``owner`` for
    attribution in traces and stall accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        owner: int,
        op_latency: float = DEFAULT_OP_LATENCY,
        bandwidth_bps: float = DEFAULT_BANDWIDTH,
        trace: Optional[TraceRecorder] = None,
        faults: Optional[StorageFaultModel] = None,
        rng: Optional[random.Random] = None,
        group_commit: Optional[GroupCommitPolicy] = None,
    ) -> None:
        if op_latency < 0:
            raise ValueError(f"op_latency must be non-negative, got {op_latency!r}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps!r}")
        self.sim = sim
        self.owner = owner
        self.op_latency = op_latency
        self.bandwidth_bps = bandwidth_bps
        self.trace = trace
        self.faults = faults
        self.rng = rng
        self.group_commit = group_commit
        self.stats = StableStorageStats()
        #: optional :class:`~repro.core.metrics_registry.MetricsRegistry`
        #: for the distributions (set by System); the counts themselves
        #: live in :attr:`stats`
        self.registry = None
        self._histograms: Dict[str, Any] = {}
        #: optional repro.obs.CostLedger (set by System; None = zero cost);
        #: charged beside every stats mutation so account sums conserve
        self.cost = None
        self._data: Dict[str, Any] = {}
        self._device_free_at = 0.0
        self._pending: Dict[int, Any] = {}
        self._op_spans: Dict[int, int] = {}
        self._next_op_id = 0
        # group-commit write buffer: (log, entry, size, on_done, stall_node,
        # enqueued_at), volatile until the batch flush lands
        self._batch_queue: List[Tuple[str, Any, int, Any, Optional[int], float]] = []
        self._batch_bytes = 0
        self._batch_timer: Optional[Any] = None

    # ------------------------------------------------------------------
    def _histogram(self, name: str) -> Any:
        """This device's ``storage.<name>`` histogram: resolved once, at
        first use (so a run reports exactly the metrics it touched), then
        a dict hit per operation instead of name validation."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = self.registry.histogram("storage." + name)
        return histogram

    def _fault_rng(self) -> random.Random:
        if self.rng is None:
            self.rng = random.Random(derive_seed(0, f"storage.faults.{self.owner}"))
        return self.rng

    def _op_duration(self, size_bytes: int) -> float:
        return self.op_latency + size_bytes / self.bandwidth_bps

    def _faulted_start(self, op_id: int, start: float, duration: float) -> float:
        """Push the successful attempt's start time past injected faults.

        Each failed attempt occupies the device for the full operation
        duration, then waits out the retry backoff.  Raises
        :class:`StorageFaultError` once the retry budget is exhausted.
        """
        attempt = 0
        rng = self._fault_rng()
        while self.faults.attempt_fails(op_id, attempt, start, rng):
            attempt += 1
            if attempt >= self.faults.retry.max_attempts:
                raise StorageFaultError(
                    f"storage device {self.owner}: op {op_id} failed "
                    f"{attempt} attempts (non-transient fault?)"
                )
            wasted = duration + self.faults.retry.delay_for(attempt - 1)
            self.stats.faults_injected += 1
            self.stats.retry_time += wasted
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, "storage", self.owner, "fault",
                    op=op_id, attempt=attempt, retry_at=start + wasted,
                )
            start += wasted
        return start

    def _schedule_op(
        self, size_bytes: int, done: Callable[[], None], kind: str = "op"
    ) -> float:
        """Serialize on the device; returns completion time."""
        start = max(self.sim.now, self._device_free_at)
        duration = self._op_duration(size_bytes)
        op_id = self._next_op_id
        self._next_op_id += 1
        if self.faults is not None:
            start = self._faulted_start(op_id, start, duration)
        finish = start + duration
        self._device_free_at = finish
        self.stats.busy_time += duration
        if self.trace is not None and self.trace.spans.enabled:
            # span covers request -> durable: queueing and injected
            # retries included, which is the latency callers experience
            span = self.trace.spans.begin(
                f"storage.{kind}", self.owner, self.sim.now, size=size_bytes
            )
            if span is not None:
                self._op_spans[op_id] = span
        if self.registry is not None:
            self._histogram("op_latency").observe(finish - self.sim.now)

        def complete() -> None:
            self._pending.pop(op_id, None)
            span = self._op_spans.pop(op_id, None)
            if span is not None:
                self.trace.spans.end(span, self.sim.now)
            done()

        self._pending[op_id] = self.sim.schedule_at(finish, complete, label="stable_op")
        return finish

    def abort_pending(self) -> int:
        """Drop operations still in flight (the owner crashed).

        Data queued in write buffers but not yet committed is lost with
        the crash -- this is what makes asynchronous (optimistic) logging
        lossy and synchronous (pessimistic) logging safe.  Returns the
        number of aborted operations.
        """
        count = len(self._pending)
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()
        if self._op_spans and self.trace is not None:
            for span in self._op_spans.values():
                self.trace.spans.end(span, self.sim.now, aborted=True)
        self._op_spans.clear()
        self._device_free_at = self.sim.now
        # the group-commit write buffer is volatile: queued appends that
        # never flushed die with the process, exactly like an in-flight op
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if self._batch_queue:
            self.stats.batch_lost += len(self._batch_queue)
            self._batch_queue.clear()
            self._batch_bytes = 0
        return count

    # ------------------------------------------------------------------
    def write(
        self,
        name: str,
        value: Any,
        size_bytes: int,
        on_done: Optional[Callable[[], None]] = None,
        stall_node: Optional[int] = None,
    ) -> float:
        """Durably write ``value`` under ``name``.

        ``on_done`` fires when the write is on stable storage.  If
        ``stall_node`` is given, the wait is charged to that node's
        synchronous-stall account (the cost the paper's new algorithm
        avoids imposing on live processes).

        Returns the completion time.
        """
        self.stats.writes += 1
        self.stats.bytes_written += size_bytes
        if self.cost is not None:
            self.cost.charge_storage(self.sim.now, self.owner, "write", name, size_bytes)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "storage", self.owner, "write", name=name, size=size_bytes
            )

        def done() -> None:
            """Apply the write once the device op completes."""
            self._data[name] = value
            if on_done is not None:
                on_done()

        finish = self._schedule_op(size_bytes, done, kind="write")
        if stall_node is not None:
            self.stats.add_stall(stall_node, finish - self.sim.now)
        return finish

    def read(
        self,
        name: str,
        size_bytes: int,
        on_done: Callable[[Any], None],
        stall_node: Optional[int] = None,
    ) -> float:
        """Read ``name`` back; ``on_done(value)`` fires on completion.

        Reading a missing name delivers ``None``.  Returns completion time.
        """
        self.stats.reads += 1
        self.stats.bytes_read += size_bytes
        if self.cost is not None:
            self.cost.charge_storage(self.sim.now, self.owner, "read", name, size_bytes)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "storage", self.owner, "read", name=name, size=size_bytes
            )

        def done() -> None:
            """Deliver the value once the device op completes."""
            on_done(self._data.get(name))

        finish = self._schedule_op(size_bytes, done, kind="read")
        if stall_node is not None:
            self.stats.add_stall(stall_node, finish - self.sim.now)
        return finish

    def write_bootstrap(self, name: str, value: Any) -> None:
        """Install ``name`` durably at time zero, free of charge.

        For state that exists on disk before the process launches (the
        initial image, the round-0 snapshot); not for runtime writes.
        """
        self._data[name] = value

    # ------------------------------------------------------------------
    # append-only logs (used by Manetho-style and receiver-based logging)
    # ------------------------------------------------------------------
    def log_append(
        self,
        log: str,
        entry: Any,
        size_bytes: int,
        on_done: Optional[Callable[[], None]] = None,
        stall_node: Optional[int] = None,
    ) -> float:
        """Durably append ``entry`` to the named log.

        Without group commit this costs one write of ``size_bytes`` and
        returns the completion time.  With a :class:`GroupCommitPolicy`
        attached, the append joins the volatile write buffer and is
        durable only when its batch flushes -- ``on_done`` still fires
        exactly at durability, but the returned time is the *projected*
        flush deadline (the batch may flush earlier on a size threshold).
        """
        if self.group_commit is not None:
            return self._enqueue_append(log, entry, size_bytes, on_done, stall_node)
        self.stats.writes += 1
        self.stats.bytes_written += size_bytes
        if self.cost is not None:
            self.cost.charge_storage(
                self.sim.now, self.owner, "write", log, size_bytes, is_log=True
            )
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "storage", self.owner, "log_append", log=log, size=size_bytes
            )

        def done() -> None:
            """Append the entry once the device op completes."""
            self._data.setdefault(f"log:{log}", []).append(entry)
            if on_done is not None:
                on_done()

        finish = self._schedule_op(size_bytes, done, kind="log_append")
        if stall_node is not None:
            self.stats.add_stall(stall_node, finish - self.sim.now)
        return finish

    def _enqueue_append(
        self,
        log: str,
        entry: Any,
        size_bytes: int,
        on_done: Optional[Callable[[], None]],
        stall_node: Optional[int],
    ) -> float:
        """Queue one append in the group-commit buffer; maybe flush."""
        policy = self.group_commit
        self.stats.batched_appends += 1
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "storage", self.owner, "log_append",
                log=log, size=size_bytes, batched=True,
            )
        self._batch_queue.append(
            (log, entry, size_bytes, on_done, stall_node, self.sim.now)
        )
        self._batch_bytes += size_bytes
        if (
            len(self._batch_queue) >= policy.max_ops
            or self._batch_bytes >= policy.max_bytes
        ):
            return self._flush_batch()
        if self._batch_timer is None:
            self._batch_timer = self.sim.schedule(
                policy.window, self._flush_on_window, label=f"group_commit:{self.owner}"
            )
        return self.sim.now + policy.window

    def _flush_on_window(self) -> None:
        """Window timer fired: force the pending batch to the device."""
        self._batch_timer = None
        if self._batch_queue:
            self._flush_batch()

    def _flush_batch(self) -> float:
        """Write every queued append as one device operation."""
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        batch, self._batch_queue = self._batch_queue, []
        total = self._batch_bytes
        self._batch_bytes = 0
        self.stats.writes += 1
        self.stats.bytes_written += total
        self.stats.batch_flushes += 1
        if self.cost is not None:
            # one device op; per-entry bytes keep purpose attribution exact
            self.cost.charge_batch(
                self.sim.now,
                self.owner,
                [(log, size) for log, _e, size, _cb, _s, _at in batch],
                total,
            )
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "storage", self.owner, "batch_flush",
                ops=len(batch), size=total,
            )

        def done() -> None:
            # entries become visible (and callers learn of durability)
            # in enqueue order, matching the device's FIFO semantics
            for log, entry, _size, _on_done, _stall, _at in batch:
                self._data.setdefault(f"log:{log}", []).append(entry)
            for _log, _entry, _size, batch_on_done, _stall, _at in batch:
                if batch_on_done is not None:
                    batch_on_done()

        finish = self._schedule_op(total, done, kind="batch_flush")
        for _log, _entry, _size, _on_done, stall_node, enqueued_at in batch:
            if stall_node is not None:
                # a batched caller stalls from enqueue to durable: the
                # window wait is part of the latency it experiences
                self.stats.add_stall(stall_node, finish - enqueued_at)
        if self.registry is not None:
            observe_wait = self._histogram("batch_queue_wait").observe
            for entry in batch:
                observe_wait(self.sim.now - entry[5])
            self._histogram("batch_size_ops").observe(len(batch))
            self._histogram("batch_size_bytes").observe(total)
        return finish

    def log_read(
        self,
        log: str,
        entry_bytes: int,
        on_done: Callable[[list], None],
        stall_node: Optional[int] = None,
    ) -> float:
        """Read the whole named log back (cost: entries * ``entry_bytes``).

        ``on_done`` receives a list copy (empty if the log was never
        written).  Returns the completion time.
        """
        entries = list(self._data.get(f"log:{log}", []))
        size = entry_bytes * len(entries)
        self.stats.reads += 1
        self.stats.bytes_read += size
        if self.cost is not None:
            self.cost.charge_storage(
                self.sim.now, self.owner, "read", log, size, is_log=True
            )
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "storage", self.owner, "log_read", log=log, size=size
            )

        def done() -> None:
            """Deliver the log snapshot once the device op completes."""
            on_done(entries)

        finish = self._schedule_op(size, done, kind="log_read")
        if stall_node is not None:
            self.stats.add_stall(stall_node, finish - self.sim.now)
        return finish

    def log_len(self, log: str) -> int:
        """Zero-cost length of the named log (tests/assertions)."""
        return len(self._data.get(f"log:{log}", []))

    def log_truncate_head(self, log: str, keep, size_of=None) -> int:
        """Drop log entries that ``keep`` rejects (garbage collection).

        Modelled as a metadata operation (advancing the log's start
        pointer / recycling extents), so it costs no simulated I/O time.
        ``size_of(entry)`` -- when given -- credits each dropped entry's
        bytes to the device's reclaimed-space account, so per-protocol GC
        effectiveness is measurable without changing any timing.
        Returns the number of entries dropped.
        """
        key = f"log:{log}"
        entries = self._data.get(key)
        if not entries:
            return 0
        kept = [entry for entry in entries if keep(entry)]
        dropped = len(entries) - len(kept)
        self._data[key] = kept
        if dropped and size_of is not None:
            freed = sum(size_of(entry) for entry in entries if not keep(entry))
            self.stats.bytes_reclaimed += freed
            self.stats.reclaims += 1
            if self.cost is not None:
                self.cost.charge_gc(self.sim.now, self.owner, freed)
        return dropped

    def reclaim(self, name: str, size_bytes: int) -> None:
        """Free a durable object and credit its space to the GC account.

        A metadata operation (extent recycling): no simulated I/O time.
        Used by incremental checkpointing to drop superseded chain
        segments and by coordinated GC to drop committed rounds.
        """
        self._data.pop(name, None)
        self.stats.bytes_reclaimed += size_bytes
        self.stats.reclaims += 1
        if self.cost is not None:
            self.cost.charge_gc(self.sim.now, self.owner, size_bytes)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "storage", self.owner, "reclaim",
                name=name, size=size_bytes,
            )

    # ------------------------------------------------------------------
    def peek(self, name: str) -> Any:
        """Zero-cost inspection for tests and assertions (not simulation)."""
        return self._data.get(name)

    def contains(self, name: str) -> bool:
        """Whether ``name`` has been durably written."""
        return name in self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StableStorage(owner={self.owner}, reads={self.stats.reads}, "
            f"writes={self.stats.writes})"
        )
