"""The message bus connecting simulated nodes.

:class:`Network` implements FIFO channels over a latency model and a
topology.  By default the channels are *perfect* (the abstraction the FBL
protocols assume); an optional :class:`~repro.net.faults.NetworkFaultModel`
makes them lossy/duplicating/reordering/partitioned, and an optional
:class:`~repro.net.transport.ReliableTransport` re-establishes the
reliable-FIFO abstraction above those faults.  The bus keeps per-class
accounting -- application traffic, determinant piggybacks, recovery
control messages, and now the transport's own retransmissions and acks
are counted separately -- because the whole point of the paper is to
weigh the recovery-control column against stable-storage and blocking
costs (and, with faults on, the cost of reliability itself).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.net.latency import AtmLinkModel, LatencyModel
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - loaded only where a run has faults
    from repro.net.faults import NetworkFaultModel

#: Default bytes charged for the fixed message header (addresses, type,
#: incarnation).  Per-run values live on :attr:`Network.header_bytes`
#: (``SystemConfig.header_bytes``); these module constants remain the
#: defaults and the seed's original cost model.
HEADER_BYTES = 64
#: Default bytes charged per piggybacked determinant (see
#: :attr:`Network.determinant_bytes` / ``SystemConfig.determinant_bytes``).
DETERMINANT_BYTES = 32


class MessageKind(enum.Enum):
    """Traffic classes used for accounting."""

    APPLICATION = "application"
    PROTOCOL = "protocol"  # failure-free protocol traffic (acks, retransmits)
    RECOVERY = "recovery"  # recovery-time control messages
    STORAGE = "storage"  # traffic to the stable-storage process (f = n)
    TRANSPORT = "transport"  # reliable-transport control (acks)


@dataclass(slots=True)
class Message:
    """A message in flight.

    ``mtype`` is the protocol-level type string (``"app"``,
    ``"depinfo_request"``, ...); ``kind`` is the accounting class.
    ``piggyback`` carries determinant items in a form private to the
    sending protocol; the :class:`Network` charges its per-run
    ``determinant_bytes`` for each (the one place a message is sized).
    ``msg_id`` is stamped by the :class:`Network` at transmission time
    (each network owns its own counter, so two runs in one process never
    share an id sequence); ``transport_seq``/``transport_epoch`` are set
    by the reliable transport when one is installed.

    ``slots=True``: a run at scale holds tens of thousands of messages
    in flight; the per-instance ``__dict__`` would roughly double their
    footprint for no benefit.
    """

    src: int
    dst: int
    kind: MessageKind
    mtype: str
    payload: Dict[str, Any] = field(default_factory=dict)
    body_bytes: int = 0
    piggyback: List[Any] = field(default_factory=list)
    incarnation: int = 0
    ssn: Optional[int] = None
    msg_id: int = 0
    send_time: float = 0.0
    transport_seq: Optional[int] = None
    transport_epoch: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.msg_id} {self.mtype} {self.src}->{self.dst} "
            f"inc={self.incarnation} ssn={self.ssn} body={self.body_bytes}B "
            f"piggyback={len(self.piggyback)})"
        )


@dataclass
class NetworkStats:
    """Message/byte counters, split by :class:`MessageKind`.

    Drops are accounted twice over: by message kind and by cause
    (``no_handler`` for messages to a crashed/unregistered node, plus the
    injected ``loss``/``partition``/``scheduled`` causes).  Transport
    retransmissions are counted apart from first transmissions so the
    cost of reliability shows up as its own ledger column.
    """

    messages: Dict[str, int] = field(default_factory=dict)
    bytes: Dict[str, int] = field(default_factory=dict)
    dropped: int = 0
    drops_by_kind: Dict[str, int] = field(default_factory=dict)
    drops_by_cause: Dict[str, int] = field(default_factory=dict)
    retransmits: int = 0
    retransmit_bytes: int = 0
    duplicates_injected: int = 0

    def record(self, kind: MessageKind, size: int) -> None:
        key = kind._value_  # the plain attribute behind the .value descriptor
        self.messages[key] = self.messages.get(key, 0) + 1
        self.bytes[key] = self.bytes.get(key, 0) + size

    def record_retransmit(self, size: int) -> None:
        self.retransmits += 1
        self.retransmit_bytes += size

    def record_drop(self, kind: MessageKind, cause: str) -> None:
        self.dropped += 1
        key = kind._value_
        self.drops_by_kind[key] = self.drops_by_kind.get(key, 0) + 1
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def of_kind(self, kind: MessageKind) -> Tuple[int, int]:
        """(messages, bytes) of one traffic class."""
        return self.messages.get(kind.value, 0), self.bytes.get(kind.value, 0)


class _Link:
    """What the network keeps about one directed link that has carried
    a message: the FIFO clamp.  That the record exists says the topology
    admits the link (unknown links are never cached)."""

    __slots__ = ("clock",)

    def __init__(self) -> None:
        #: earliest time the next in-order delivery may be scheduled
        self.clock = 0.0


class Network:
    """FIFO message transport between registered handlers.

    Parameters
    ----------
    sim:
        The simulation kernel messages are scheduled on.
    topology:
        Which node pairs may communicate.
    latency:
        Latency model (defaults to the paper's ATM link).
    rngs:
        Random streams; latency jitter draws from ``"net.latency"``,
        fault decisions from ``"net.faults"``.
    trace:
        Optional trace recorder for send/deliver events.
    faults:
        Optional fault model.  ``None`` (the default) keeps the perfect
        reliable-FIFO channels of the seed simulator, bit for bit.

    Notes
    -----
    ``topology``, ``rngs`` and ``trace`` are fixed at construction (the
    link records cache the topology's answers, the two random streams
    and the trace emitters are bound once); ``latency``, ``faults`` and
    ``cost`` are read per message and may be reassigned.

    FIFO order per directed channel is enforced by never scheduling a
    delivery earlier than the previous delivery on the same channel.
    Injected reorderings and duplicates bypass that clamp on purpose;
    the reliable transport (when installed) restores ordering above.
    Messages to unregistered destinations count as dropped (this happens
    naturally while a node is crashed and deregistered).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency: Optional[LatencyModel] = None,
        rngs: Optional[RngRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        faults: Optional[NetworkFaultModel] = None,
        header_bytes: int = HEADER_BYTES,
        determinant_bytes: int = DETERMINANT_BYTES,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency or AtmLinkModel()
        self.rngs = rngs or RngRegistry(0)
        self.trace = trace
        self.faults = faults
        #: wire-cost knobs (SystemConfig.header_bytes / determinant_bytes);
        #: the defaults reproduce the seed's hardcoded cost model exactly
        self.header_bytes = header_bytes
        self.determinant_bytes = determinant_bytes
        #: optional repro.obs.CostLedger (set by System; None = zero cost)
        self.cost = None
        #: set by ReliableTransport when one is layered on this network
        self.transport = None
        #: optional ``net.message_bytes`` registry histogram (set by
        #: System); the counts themselves live in :attr:`stats`
        self.size_histogram = None
        # pre-bound trace emitters: one per (category, action) on the
        # per-message hot path; each declares its detail names here and
        # the call sites pass the values positionally, and only when the
        # emitter is live -- a counters-only sweep adds 1 to its count
        if trace is not None:
            wire_fields = ("dst", "mtype", "kind", "size", "msg_id")
            self._emit_send = trace.emitter("net", "send", wire_fields)
            self._emit_retransmit = trace.emitter("net", "retransmit", wire_fields)
            self._emit_lose = trace.emitter(
                "net", "lose", ("dst", "mtype", "cause", "msg_id"))
            self._emit_drop = trace.emitter(
                "net", "drop", ("src", "mtype", "msg_id"))
            self._emit_deliver = trace.emitter(
                "net", "deliver", ("src", "mtype", "kind", "msg_id"))
        self.stats = NetworkStats()
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        #: one record per directed link, made on the link's first message
        #: and keyed by ``(src << 21) | dst`` -- node ids are non-negative
        #: and far below 2**21, and one int key is cheaper to hash per
        #: message than a (src, dst) tuple
        self._links: Dict[int, _Link] = {}
        # the two streams this class draws from, bound once
        self._latency_rng = self.rngs.stream("net.latency")
        self._fault_rng = self.rngs.stream("net.faults")
        #: per-mtype deliver labels, interned once instead of an f-string
        #: build per message on the hot path
        self._deliver_labels: Dict[str, str] = {}
        self._dup_labels: Dict[str, str] = {}
        self._msg_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # fault model
    # ------------------------------------------------------------------
    def ensure_faults(self) -> NetworkFaultModel:
        """The installed fault model, creating a no-op one on demand."""
        if self.faults is None:
            from repro.net.faults import NetworkFaultModel

            self.faults = NetworkFaultModel()
        return self.faults

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Attach the receive handler for ``node_id``."""
        self._handlers[node_id] = handler

    def deregister(self, node_id: int) -> None:
        """Detach ``node_id``; in-flight messages to it will be dropped."""
        self._handlers.pop(node_id, None)
        if self.transport is not None:
            self.transport.on_deregister(node_id)

    def is_registered(self, node_id: int) -> bool:
        """Whether ``node_id`` currently has a handler attached."""
        return node_id in self._handlers

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> Message:
        """Queue ``message`` for FIFO delivery to ``message.dst``.

        With a reliable transport installed, the message is handed to it
        (sequence number, retransmission until acked); otherwise it goes
        straight onto the wire.
        """
        if self.transport is not None and self.transport.handles(message):
            return self.transport.send(message)
        return self.transmit(message)

    def link(self, src: int, dst: int) -> Optional[_Link]:
        """The record of the directed link ``src -> dst``, resolved
        against the topology on its first use; ``None`` if the topology
        has no such link (never cached: every attempt asks again)."""
        key = (src << 21) | dst
        link = self._links.get(key)
        if link is None and self.topology.connected(src, dst):
            link = self._links[key] = _Link()
        return link

    def transmit(self, message: Message, retransmit: bool = False) -> Message:
        """Put one message on the wire (the raw, possibly faulty path)."""
        src = message.src
        dst = message.dst
        link = self._links.get((src << 21) | dst) or self.link(src, dst)
        if link is None:
            raise ValueError(f"no link {src}->{dst} in topology")
        # read once: the clock, the type, the kind's string (the plain
        # attribute behind the enum's .value descriptor), the byte sizes
        now = self.sim.now
        mtype = message.mtype
        kind = message.kind
        kind_name = kind._value_
        message.send_time = now
        message.msg_id = msg_id = next(self._msg_ids)
        # header+body+piggyback, computed once from the per-run wire costs
        header_bytes = self.header_bytes
        piggyback_bytes = self.determinant_bytes * len(message.piggyback)
        size = header_bytes + message.body_bytes + piggyback_bytes

        if retransmit:
            self.stats.record_retransmit(size)
        else:
            self.stats.record(kind, size)
        if self.size_histogram is not None:
            self.size_histogram.observe(size)
        if self.cost is not None:
            # charged beside stats.record so ledger sums conserve exactly
            self.cost.charge_wire(
                now, src, dst, kind_name, mtype,
                size, header_bytes, piggyback_bytes, retransmit,
            )
        if self.trace is not None:
            emit = self._emit_retransmit if retransmit else self._emit_send
            if emit.live:
                emit(now, src, dst, mtype, kind_name, size, msg_id)
            else:
                emit.count += 1

        extra_delay = duplicates = 0
        faults = self.faults
        if faults is not None:
            decision = faults.decide(src, dst, mtype, now, self._fault_rng)
            cause = decision.drop_cause
            if cause is not None:
                self.stats.record_drop(kind, cause)
                if self.trace is not None:
                    emit = self._emit_lose
                    if emit.live:
                        emit(now, src, dst, mtype, cause, msg_id)
                    else:
                        emit.count += 1
                return message
            extra_delay, duplicates = decision.extra_delay, decision.duplicates

        delay = self.latency.sample(size, self._latency_rng)

        if extra_delay > 0:
            # reordered: bypass the FIFO clamp so later sends may overtake
            deliver_at = now + delay + extra_delay
        else:
            deliver_at = link.clock = max(now + delay, link.clock)
        # deliveries are fire-and-forget (never cancelled), so they take
        # the kernel's handle-free pooled path; the label is interned
        # once per mtype rather than f-string-built per message
        label = self._deliver_labels.get(mtype)
        if label is None:
            label = self._deliver_labels.setdefault(mtype, f"deliver:{mtype}")
        self.sim.schedule_fast_at(deliver_at, self._deliver, message, label=label)

        if duplicates:
            # the copy's latency draws from the faults stream, so injected
            # duplicates never perturb the primary latency sequence
            dup_label = self._dup_labels.get(mtype)
            if dup_label is None:
                dup_label = self._dup_labels.setdefault(
                    mtype, f"deliver-dup:{mtype}"
                )
            for _ in range(duplicates):
                self.stats.duplicates_injected += 1
                dup_delay = self.latency.sample(size, self._fault_rng)
                self.sim.schedule_fast_at(
                    now + dup_delay, self._deliver, message, label=dup_label,
                )
        return message

    def broadcast(
        self,
        src: int,
        dsts: Iterable[int],
        kind: MessageKind,
        mtype: str,
        payload_fn: Optional[Callable[[int], Dict[str, Any]]] = None,
        body_bytes: int = 0,
        incarnation: int = 0,
    ) -> List[Message]:
        """Send one message per destination; returns them in dst order."""
        sent = []
        for dst in sorted(set(dsts)):
            if dst == src:
                continue
            payload = payload_fn(dst) if payload_fn is not None else {}
            sent.append(
                self.send(
                    Message(
                        src=src,
                        dst=dst,
                        kind=kind,
                        mtype=mtype,
                        payload=payload,
                        body_bytes=body_bytes,
                        incarnation=incarnation,
                    )
                )
            )
        return sent

    # ------------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        if self.transport is not None:
            if message.kind is MessageKind.TRANSPORT:
                self.transport.on_ack(message)
                return
            if message.transport_seq is not None:
                self.transport.on_receive(message)
                return
        self.hand_to_handler(message)

    def hand_to_handler(self, message: Message) -> None:
        """Final delivery step: trace and invoke the destination handler."""
        dst = message.dst
        handler = self._handlers.get(dst)
        if handler is None:
            self.drop_no_handler(message)
            return
        if self.trace is not None:
            emit = self._emit_deliver
            if emit.live:
                emit(self.sim.now, dst,
                     message.src, message.mtype, message.kind._value_, message.msg_id)
            else:
                emit.count += 1
        handler(message)

    def drop_no_handler(self, message: Message) -> None:
        """Count and trace a message that reached a host with no handler
        attached (crashed or never registered)."""
        self.stats.record_drop(message.kind, "no_handler")
        if self.trace is not None:
            emit = self._emit_drop
            if emit.live:
                emit(self.sim.now, message.dst, message.src, message.mtype, message.msg_id)
            else:
                emit.count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={len(self.topology.nodes)}, "
            f"sent={self.stats.total_messages()}, dropped={self.stats.dropped})"
        )
