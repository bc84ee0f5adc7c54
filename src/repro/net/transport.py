"""Reliable channel layer over a faulty network.

The recovery protocols in this reproduction assume reliable FIFO
channels.  The seed simulator provided them by fiat; once the network
can lose, duplicate, and reorder messages (:mod:`repro.net.faults`), the
abstraction must be *implemented* -- which is exactly what real
message-logging deployments do at the library layer.
:class:`ReliableTransport` re-establishes it:

* per-directed-channel sequence numbers and in-order delivery (out of
  order arrivals are buffered),
* cumulative acknowledgements,
* retransmission timers with exponential backoff and a cap, giving up
  after a bounded number of attempts,
* duplicate suppression keyed by ``(channel, epoch, seq)``, where the
  *epoch* plays the role of the sender's incarnation: it is bumped
  whenever either endpoint of the channel deregisters (crashes), so a
  restarted process starts a fresh sequence space and stale messages
  from the previous connection are rejected.

Messages the transport could not deliver because the destination host
crashed are *not* replayed by the transport -- that is the job of the
recovery protocols above (their send logs and retransmission service).
The transport only guarantees exactly-once, in-order delivery per
connection epoch, which is all the protocols assume of the network.

All transport overhead (retransmissions, acks) flows into
:class:`~repro.net.network.NetworkStats` as its own accounting class, so
the paper's communication-cost ledger now shows the cost of reliability
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.net.network import Message, MessageKind, Network
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

Channel = Tuple[int, int]  # (src, dst)


@dataclass
class TransportParams:
    """Tuning of the retransmission state machine."""

    #: initial retransmission timeout, seconds (a few network RTTs)
    rto: float = 0.025
    #: multiplicative backoff applied per retry
    backoff: float = 2.0
    #: cap on the backed-off timeout
    max_rto: float = 0.5
    #: retransmission attempts before giving up on a message
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.rto <= 0 or self.max_rto <= 0:
            raise ValueError("rto and max_rto must be positive")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")

    def timeout_for(self, attempts: int) -> float:
        """The RTO after ``attempts`` prior transmissions of a message."""
        return min(self.rto * (self.backoff ** attempts), self.max_rto)


@dataclass
class TransportStats:
    """Counters for the reliability machinery itself."""

    sent: int = 0
    acks_sent: int = 0
    dup_suppressed: int = 0
    out_of_order_buffered: int = 0
    gave_up: int = 0
    aborted_on_reset: int = 0
    stale_dropped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "acks_sent": self.acks_sent,
            "dup_suppressed": self.dup_suppressed,
            "out_of_order_buffered": self.out_of_order_buffered,
            "gave_up": self.gave_up,
            "aborted_on_reset": self.aborted_on_reset,
            "stale_dropped": self.stale_dropped,
        }


@dataclass(slots=True)
class _InFlight:
    message: Message
    attempts: int = 0
    handle: Optional[object] = None


@dataclass
class _RecvState:
    epoch: int
    expected: int = 0
    buffer: Dict[int, Message] = field(default_factory=dict)


class ReliableTransport:
    """Implements reliable FIFO channels on a lossy :class:`Network`.

    Installing the transport redirects every :meth:`Network.send` through
    sequence-number assignment and retransmission; deliveries are
    reordered back into sequence before reaching the registered handler.
    The protocols above run unmodified.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        params: Optional[TransportParams] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.params = params or TransportParams()
        self.trace = trace
        self.stats = TransportStats()
        self._send_seq: Dict[Channel, int] = {}
        self._epoch: Dict[Channel, int] = {}
        self._pending: Dict[Channel, Dict[int, _InFlight]] = {}
        self._recv: Dict[Channel, _RecvState] = {}
        # per-channel retransmit-epoch spans: first retransmit opens one,
        # the last outstanding retransmitted seq being acked (or the
        # channel giving up / resetting) closes it
        self._retx_span: Dict[Channel, int] = {}
        self._retx_seqs: Dict[Channel, set] = {}
        #: per-channel RTO timer labels, interned at the channel's first send
        self._rto_labels: Dict[Channel, str] = {}
        network.transport = self

    # ------------------------------------------------------------------
    # retransmit-epoch spans
    # ------------------------------------------------------------------
    def _retx_note(self, channel: Channel, seq: int) -> None:
        if self.trace is None or not self.trace.spans.enabled:
            return
        seqs = self._retx_seqs.setdefault(channel, set())
        seqs.add(seq)
        if channel not in self._retx_span:
            span = self.trace.spans.begin(
                "transport.retransmit_epoch",
                channel[0],
                self.sim.now,
                dst=channel[1],
            )
            if span is not None:
                self._retx_span[channel] = span

    def _retx_resolve(self, channel: Channel, seq: int) -> None:
        seqs = self._retx_seqs.get(channel)
        if seqs is None:
            return
        seqs.discard(seq)
        if not seqs:
            self._retx_close(channel)

    def _retx_close(self, channel: Channel, **attrs) -> None:
        self._retx_seqs.pop(channel, None)
        span = self._retx_span.pop(channel, None)
        if span is not None:
            self.trace.spans.end(span, self.sim.now, **attrs)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def handles(self, message: Message) -> bool:
        """Whether this message class is carried reliably (all but acks)."""
        return message.kind is not MessageKind.TRANSPORT

    def send(self, message: Message) -> Message:
        channel = (message.src, message.dst)
        seq = self._send_seq.get(channel, 0)
        self._send_seq[channel] = seq + 1
        message.transport_seq = seq
        message.transport_epoch = self._epoch.get(channel, 0)
        entry = _InFlight(message=message)
        self._pending.setdefault(channel, {})[seq] = entry
        self.stats.sent += 1
        self.network.transmit(message)
        self._arm(channel, seq, entry)
        return message

    def _arm(self, channel: Channel, seq: int, entry: _InFlight) -> None:
        label = self._rto_labels.get(channel)
        if label is None:
            label = self._rto_labels.setdefault(
                channel, f"transport.rto:{channel[0]}->{channel[1]}"
            )
        entry.handle = self.sim.schedule(
            self.params.timeout_for(entry.attempts),
            self._on_timeout,
            channel,
            seq,
            label=label,
        )

    def _on_timeout(self, channel: Channel, seq: int) -> None:
        entry = self._pending.get(channel, {}).get(seq)
        if entry is None:
            return  # acked, or the channel was reset
        entry.attempts += 1
        if entry.attempts > self.params.max_retries:
            # connection reset (as TCP does on retry exhaustion): abort
            # everything pending on the channel and bump the epoch, so a
            # later send does not leave a sequence hole the receiver would
            # wait on forever
            self.stats.gave_up += 1
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, "transport", channel[0], "give_up",
                    dst=channel[1], seq=seq, mtype=entry.message.mtype,
                )
            del self._pending[channel][seq]
            self._reset_channel(channel)
            return
        # retransmit a clone so the copy already in flight keeps its
        # own msg_id/send_time in the trace (transmit stamps both anew)
        self._retx_note(channel, seq)
        original = entry.message
        clone = Message(
            src=original.src,
            dst=original.dst,
            kind=original.kind,
            mtype=original.mtype,
            payload=original.payload,
            body_bytes=original.body_bytes,
            piggyback=original.piggyback,
            incarnation=original.incarnation,
            ssn=original.ssn,
            transport_seq=original.transport_seq,
            transport_epoch=original.transport_epoch,
        )
        self.network.transmit(clone, retransmit=True)
        self._arm(channel, seq, entry)

    def _reset_channel(self, channel: Channel) -> None:
        """Abort the channel's in-flight window and start a new epoch."""
        pending = self._pending.pop(channel, {})
        for entry in pending.values():
            if entry.handle is not None:
                entry.handle.cancel()
        self._retx_close(channel, gave_up=True)
        self.stats.aborted_on_reset += len(pending)
        self._epoch[channel] = self._epoch.get(channel, 0) + 1
        self._send_seq[channel] = 0

    def on_ack(self, message: Message) -> None:
        """A cumulative ack arrived back at the original sender."""
        src, dst = message.payload["channel"]
        channel = (src, dst)
        if message.payload["epoch"] != self._epoch.get(channel, 0):
            self.stats.stale_dropped += 1
            return
        cum = message.payload["cum"]
        pending = self._pending.get(channel)
        if not pending:
            return
        for seq in [s for s in pending if s <= cum]:
            entry = pending.pop(seq)
            if entry.handle is not None:
                entry.handle.cancel()
            self._retx_resolve(channel, seq)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def on_receive(self, message: Message) -> None:
        channel = (message.src, message.dst)
        if not self.network.is_registered(message.dst):
            # the destination host is down; never ack on its behalf
            self.network.drop_no_handler(message)
            return
        state = self._recv.get(channel)
        if state is None or message.transport_epoch > state.epoch:
            state = _RecvState(epoch=message.transport_epoch)
            self._recv[channel] = state
        elif message.transport_epoch < state.epoch:
            self.stats.stale_dropped += 1
            return
        seq = message.transport_seq
        if seq < state.expected or seq in state.buffer:
            self.stats.dup_suppressed += 1
            self._send_ack(channel, state)
            return
        if seq != state.expected:
            self.stats.out_of_order_buffered += 1
        state.buffer[seq] = message
        while self._recv.get(channel) is state:
            next_msg = state.buffer.pop(state.expected, None)
            if next_msg is None:
                break
            state.expected += 1
            # the handler may crash the node (trace-triggered injection),
            # resetting this channel -- the loop guard re-checks identity
            self.network.hand_to_handler(next_msg)
        if self._recv.get(channel) is state:
            self._send_ack(channel, state)

    def _send_ack(self, channel: Channel, state: _RecvState) -> None:
        src, dst = channel
        if self.network.link(dst, src) is None:
            return  # one-way link: rely on the sender's give-up bound
        if not self.network.is_registered(dst):
            return  # receiver crashed while draining its buffer
        self.stats.acks_sent += 1
        self.network.transmit(
            Message(
                src=dst,
                dst=src,
                kind=MessageKind.TRANSPORT,
                mtype="transport_ack",
                payload={"channel": [src, dst], "epoch": state.epoch,
                         "cum": state.expected - 1},
                body_bytes=0,
            )
        )

    # ------------------------------------------------------------------
    # crash handling
    # ------------------------------------------------------------------
    def on_deregister(self, node_id: int) -> None:
        """A host went down: reset the channel state that was volatile
        *at that host*.

        Toward the crashed node (``* -> node``): unacked messages are
        aborted -- the transport does not replay traffic to a crashed
        destination, the recovery protocols' send logs do -- and the
        channel gets a new epoch, so the restarted incarnation begins a
        fresh sequence space and pre-crash stragglers are rejected as
        stale.

        Away from the crashed node (``node -> *``): nothing is touched.
        A message the channel has accepted stays its responsibility until
        acknowledged, exactly like the seed's in-flight messages, which
        outlive their sender's crash because they live in the network,
        not in the sender.  Aborting these would silently lose messages
        (and FBL's piggybacked determinants with them) that the perfect
        network would have delivered.
        """
        for channel in list(self._pending):
            if channel[1] == node_id:
                pending = self._pending.pop(channel)
                for entry in pending.values():
                    if entry.handle is not None:
                        entry.handle.cancel()
                self._retx_close(channel, aborted=True)
                self.stats.aborted_on_reset += len(pending)
        for channel in list(self._epoch.keys() | self._send_seq.keys()
                            | self._recv.keys()):
            if channel[1] == node_id:
                self._epoch[channel] = self._epoch.get(channel, 0) + 1
                self._send_seq[channel] = 0
        for channel in list(self._recv):
            if channel[1] == node_id:
                del self._recv[channel]  # the receiver's state was volatile

    # ------------------------------------------------------------------
    def unacked(self) -> int:
        """Messages still awaiting acknowledgement (tests/assertions)."""
        return sum(len(p) for p in self._pending.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReliableTransport(sent={self.stats.sent}, "
            f"unacked={self.unacked()}, gave_up={self.stats.gave_up})"
        )
