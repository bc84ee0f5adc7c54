"""Wire accounting as a property, and the edges of the link record.

Every message the :class:`Network` puts on the wire is counted once, in
:class:`NetworkStats` (the registry's ``net.*`` counters are read off it
at summary time).  Two records sit beside that count: the trace's
``net.*`` counters and, when one is attached, the :class:`CostLedger`'s
accounts.  The property below drives short random traffic through every
combination of fault spec, reliable transport and ledger, with the
receiver crashing mid-flight, and checks that the records agree with
the count, that channels stay FIFO wherever FIFO is promised, and that
building trace events changes no counter.

The plain tests after it pin what the per-link record must not change:
unknown links are refused on every attempt, latency overrides and a
reassigned default latency are honoured, the FIFO clock outlives a
deregister/re-register of the receiver, and an emitter's event carries
the details the kwargs form produced, in the same key order.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import LinkFaultSpec, NetworkFaultModel
from repro.net.network import Message, MessageKind, Network
from repro.net.topology import Topology
from repro.net.transport import ReliableTransport
from repro.obs import CostLedger
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

from helpers import ConstantLatency, UniformLatency, full_mesh

FAULTS = {
    "none": None,
    "loss": LinkFaultSpec(loss_prob=0.3),
    "dup": LinkFaultSpec(dup_prob=0.3),
    "reorder": LinkFaultSpec(reorder_prob=0.4, reorder_delay=0.004),
}
KINDS = (
    MessageKind.APPLICATION,
    MessageKind.PROTOCOL,
    MessageKind.RECOVERY,
    MessageKind.STORAGE,
)
CHANNELS = ((0, 1), (2, 1), (1, 0), (0, 2))

sends = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.03),  # send time
        st.sampled_from(CHANNELS),
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=3000),  # body bytes
        st.integers(min_value=0, max_value=4),  # piggyback length
    ),
    min_size=1,
    max_size=24,
)
#: node 1 (the receiver of two channels) goes down at [0] for [1] seconds
outages = st.none() | st.tuples(
    st.floats(min_value=0.0, max_value=0.03),
    st.floats(min_value=0.0005, max_value=0.02),
)


def run_traffic(traffic, outage, fault, transport, ledger, seed, keep_events):
    """One run; returns ``(net, trace, deliveries, cost)`` where
    ``deliveries[(src, dst)]`` lists ``(receiver session, send index)``."""
    sim = Simulator()
    trace = TraceRecorder(keep_events=keep_events)
    spec = FAULTS[fault]
    net = Network(
        sim,
        full_mesh(3),
        latency=UniformLatency(0.0002, 0.002),
        rngs=RngRegistry(seed),
        trace=trace,
        faults=NetworkFaultModel(default=spec) if spec is not None else None,
    )
    if transport:
        ReliableTransport(sim, net, trace=trace)
    cost = None
    if ledger:
        cost = net.cost = CostLedger()
    deliveries = {}
    session = {node: 0 for node in range(3)}

    def handler(message):
        deliveries.setdefault((message.src, message.dst), []).append(
            (session[message.dst], message.payload["i"])
        )

    def up(node):
        session[node] += 1
        net.register(node, handler)

    for node in range(3):
        net.register(node, handler)
    if outage is not None:
        down_at, down_for = outage
        sim.schedule_at(down_at, net.deregister, 1)
        sim.schedule_at(down_at + down_for, up, 1)
    for index, (at, (src, dst), kind, body_bytes, piggyback) in enumerate(
        sorted(traffic, key=lambda send: send[0])
    ):
        sim.schedule_at(
            at,
            net.send,
            Message(
                src=src, dst=dst, kind=kind, mtype="m",
                payload={"i": index}, body_bytes=body_bytes,
                piggyback=[None] * piggyback,
            ),
        )
    sim.run()
    return net, trace, deliveries, cost


@settings(max_examples=120, deadline=None)
@given(
    traffic=sends,
    outage=outages,
    fault=st.sampled_from(sorted(FAULTS)),
    transport=st.booleans(),
    ledger=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_stats_trace_and_ledger_agree(traffic, outage, fault, transport, ledger, seed):
    net, trace, deliveries, cost = run_traffic(
        traffic, outage, fault, transport, ledger, seed, keep_events=True
    )
    stats = net.stats
    assert stats.total_messages() == trace.count("net", "send")
    assert stats.retransmits == trace.count("net", "retransmit")
    assert stats.dropped == trace.count("net", "lose") + trace.count("net", "drop")
    assert sum(stats.drops_by_cause.values()) == stats.dropped
    assert sum(stats.drops_by_kind.values()) == stats.dropped
    assert stats.drops_by_cause.get("no_handler", 0) == trace.count("net", "drop")
    if not transport:
        assert stats.retransmits == 0
        assert trace.count("net", "deliver") == sum(map(len, deliveries.values()))
    if cost is not None:
        assert cost.conservation(stats, {})["conserved"]
        # the account sums, taken straight off the accounts
        by_purpose = {}
        for (_domain, _src, _dst, purpose, _phase), (count, nbytes) in cost.accounts.items():
            cell = by_purpose.setdefault(purpose, [0, 0])
            cell[0] += count
            cell[1] += nbytes
        assert sum(nbytes for _, nbytes in by_purpose.values()) == (
            stats.total_bytes() + stats.retransmit_bytes
        )
        assert by_purpose.get("header", [0, 0])[0] == stats.total_messages()
        assert by_purpose.get("retransmit", [0, 0]) == [
            stats.retransmits, stats.retransmit_bytes
        ]
        assert by_purpose == cost.purposes["wire"]

    # FIFO per channel: promised by the clamp while nothing bypasses it
    # (no duplicate, no reordering), and by the transport always.  A
    # restarted receiver may see a connection's opening messages again,
    # so the order is checked within each of its sessions.
    if transport or fault in ("none", "loss"):
        for channel, got in deliveries.items():
            assert got == sorted(got), (channel, got)
            assert len(set(got)) == len(got), (channel, got)

    # building events must not move a single counter
    quiet_net, quiet_trace, quiet_deliveries, _ = run_traffic(
        traffic, outage, fault, transport, ledger, seed, keep_events=False
    )
    assert quiet_trace.counters == trace.counters
    assert quiet_trace.events == []
    assert quiet_net.stats == stats
    assert quiet_deliveries == deliveries


def test_transport_traces_the_drop_at_a_crashed_host():
    """A data message reaching a down host under the reliable transport
    is counted *and* traced, exactly as on the raw path."""
    sim = Simulator()
    trace = TraceRecorder()
    net = Network(sim, full_mesh(2), latency=ConstantLatency(0.001), trace=trace)
    ReliableTransport(sim, net, trace=trace)
    net.register(1, lambda m: None)
    net.send(Message(src=0, dst=1, kind=MessageKind.APPLICATION, mtype="app"))
    net.deregister(1)  # crashes while the message is in flight
    sim.run()
    assert net.stats.drops_by_cause == {"no_handler": 1}
    (drop,) = trace.select("net", action="drop")
    assert (drop.time, drop.node) == (0.001, 1)
    assert drop.details == {"src": 0, "mtype": "app", "msg_id": 1}


# ----------------------------------------------------------------------
# the link record
# ----------------------------------------------------------------------
def make_net(topology=None, latency=None, trace=None):
    sim = Simulator()
    net = Network(
        sim, topology or full_mesh(3),
        latency=latency or ConstantLatency(0.001), trace=trace,
    )
    return sim, net


def msg(src=0, dst=1, **kw):
    return Message(src=src, dst=dst, kind=MessageKind.APPLICATION, mtype="app", **kw)


def test_unknown_link_raises_on_the_first_and_every_later_send():
    trace = TraceRecorder()
    sim, net = make_net(Topology(range(3), [(0, 1)]), trace=trace)
    net.register(1, lambda m: None)
    for _ in range(3):
        with pytest.raises(ValueError, match="no link 1->0"):
            net.send(msg(src=1, dst=0))
        assert net.link(1, 0) is None
    net.send(msg())  # the known link is unaffected
    with pytest.raises(ValueError, match="no link 1->0"):
        net.send(msg(src=1, dst=0))
    # a refused send is charged nowhere
    assert net.stats.total_messages() == 1
    assert trace.count("net", "send") == 1


def test_default_latency_reassigned_after_construction_is_honoured():
    sim, net = make_net(latency=ConstantLatency(0.001))
    times = []
    net.register(1, lambda m: times.append(sim.now))
    net.send(msg())
    sim.run()
    net.latency = ConstantLatency(0.25)
    net.send(msg())
    sim.run()
    assert times == [pytest.approx(0.001), pytest.approx(0.251)]


def test_fifo_clock_survives_deregister_and_reregister():
    """The clamp belongs to the link, not to the receiver's registration:
    a message sent after the receiver came back may not overtake one
    still in flight from before."""
    sim, net = make_net(latency=ConstantLatency(1.0))
    got = []
    net.register(1, lambda m: got.append((m.payload["i"], sim.now)))
    net.send(msg(payload={"i": 0}))
    net.deregister(1)
    net.register(1, lambda m: got.append((m.payload["i"], sim.now)))
    net.latency = ConstantLatency(0.01)
    net.send(msg(payload={"i": 1}))
    sim.run()
    assert got == [(0, 1.0), (1, 1.0)]


def test_retransmit_clone_copies_every_field_but_the_two_transmit_stamps():
    """The transport builds its retransmit clone field by field; a field
    added to :class:`Message` must not be silently dropped by it."""
    sim = Simulator()
    net = Network(
        sim, full_mesh(2), latency=ConstantLatency(0.001),
        faults=NetworkFaultModel(default=LinkFaultSpec(loss_prob=1.0)),
    )
    ReliableTransport(sim, net)
    wire = []
    transmit = net.transmit
    net.transmit = lambda m, retransmit=False: wire.append(m) or transmit(m, retransmit)
    original = net.send(msg(
        payload={"data": 1}, body_bytes=77, piggyback=["d"], incarnation=3, ssn=9,
    ))
    sim.run(until=0.03)  # first RTO is 25 ms
    first, clone = wire[:2]
    assert first is original and clone is not original
    for f in dataclasses.fields(Message):
        if f.name in ("msg_id", "send_time"):
            assert getattr(clone, f.name) != getattr(original, f.name)
        else:
            assert getattr(clone, f.name) == getattr(original, f.name), f.name
    assert clone.payload is original.payload  # shallow, as dataclasses.replace was


# ----------------------------------------------------------------------
# the emitter contract
# ----------------------------------------------------------------------
def test_emitter_event_equals_the_kwargs_form_key_order_included():
    trace = TraceRecorder()
    emit = trace.emitter("net", "send", ("dst", "mtype", "kind", "size", "msg_id"))
    emit(0.5, 3, 4, "app", "application", 200, 17)
    trace.record(
        0.5, "net", 3, "send", dst=4, mtype="app", kind="application", size=200, msg_id=17
    )
    by_emitter, by_record = trace.events
    assert by_emitter == by_record
    assert list(by_emitter.details) == list(by_record.details)
    assert trace.counters == {"net.send": 2}
    assert trace.events == [by_emitter, by_record]


def test_emitter_builds_nothing_when_no_event_is_wanted():
    trace = TraceRecorder(keep_events=False)
    emit = trace.emitter("net", "send", ("dst", "mtype"))
    assert emit(0.0, 0, 1, "app") is None
    assert emit(0.0, 0) is None  # values are not even looked at
    assert trace.counters == {"net.send": 2}


def test_emitter_refuses_values_that_do_not_match_its_fields():
    trace = TraceRecorder()
    emit = trace.emitter("net", "send", ("dst", "mtype"))
    with pytest.raises(ValueError):
        emit(0.0, 0, 1)
    with pytest.raises(ValueError):
        emit(0.0, 0, 1, "app", "extra")


def test_every_wire_event_keeps_its_detail_keys_in_order():
    """The five ``net.*`` events, end to end through the network."""
    trace = TraceRecorder()
    sim = Simulator()
    net = Network(
        sim, full_mesh(3), latency=ConstantLatency(0.001), trace=trace,
        faults=NetworkFaultModel(links={(0, 2): LinkFaultSpec(loss_prob=1.0)}),
    )
    ReliableTransport(sim, net, trace=trace)
    net.register(1, lambda m: None)
    net.send(msg(dst=1))  # send, deliver
    net.send(msg(dst=2))  # send, lose, retransmit...
    sim.run(until=0.03)
    net.deregister(1)
    net.transmit(msg(dst=1))  # raw: drop at the down host
    sim.run(until=0.04)
    keys = {
        action: list(trace.first("net", action=action).details)
        for action in ("send", "retransmit", "lose", "deliver", "drop")
    }
    assert keys == {
        "send": ["dst", "mtype", "kind", "size", "msg_id"],
        "retransmit": ["dst", "mtype", "kind", "size", "msg_id"],
        "lose": ["dst", "mtype", "cause", "msg_id"],
        "deliver": ["src", "mtype", "kind", "msg_id"],
        "drop": ["src", "mtype", "msg_id"],
    }
