"""Unit tests for the network message bus."""

import pytest

from repro.net.network import (
    DETERMINANT_BYTES,
    HEADER_BYTES,
    Message,
    MessageKind,
    Network,
    NetworkStats,
)
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

from helpers import ConstantLatency, full_mesh


def make_net(n=3, latency=None, trace=None):
    sim = Simulator()
    net = Network(sim, full_mesh(n), latency=latency or ConstantLatency(0.001), trace=trace)
    return sim, net


def msg(src=0, dst=1, kind=MessageKind.APPLICATION, mtype="app", **kw):
    return Message(src=src, dst=dst, kind=kind, mtype=mtype, **kw)


def test_message_delivered_to_handler():
    sim, net = make_net()
    got = []
    net.register(1, got.append)
    net.send(msg(body_bytes=10))
    sim.run()
    assert len(got) == 1
    assert got[0].src == 0


def test_delivery_takes_latency():
    sim, net = make_net(latency=ConstantLatency(0.25))
    got = []
    net.register(1, lambda m: got.append(sim.now))
    net.send(msg())
    sim.run()
    assert got == [0.25]


def test_fifo_per_channel():
    """Messages on one channel arrive in send order even with weird latency."""
    sim, net = make_net()
    order = []
    net.register(1, lambda m: order.append(m.payload["i"]))

    class Shrinking(ConstantLatency):
        def __init__(self):
            self.next = 1.0
            super().__init__(0.0)

        def sample(self, size, rng):
            self.next /= 2  # later messages "faster" -- FIFO must still hold
            return self.next

    net.latency = Shrinking()
    for i in range(5):
        net.send(msg(payload={"i": i}))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_unregistered_destination_drops():
    sim, net = make_net()
    net.send(msg(dst=2))
    sim.run()
    assert net.stats.dropped == 1


def test_deregister_then_drop():
    sim, net = make_net()
    got = []
    net.register(1, got.append)
    net.deregister(1)
    net.send(msg())
    sim.run()
    assert got == []
    assert net.stats.dropped == 1


def test_no_link_raises():
    sim, net = make_net()
    with pytest.raises(ValueError):
        net.send(msg(src=0, dst=0))


def test_size_accounting():
    sim, net = make_net()
    net.register(1, lambda m: None)
    net.send(msg(body_bytes=100, piggyback=[1, 2, 3]))
    sim.run()
    assert net.stats.of_kind(MessageKind.APPLICATION) == (
        1, HEADER_BYTES + 100 + 3 * DETERMINANT_BYTES
    )


def test_size_accounting_uses_the_per_run_wire_costs():
    """The network is the one place a message is sized: a run configured
    with other header/determinant costs is charged those, not the module
    defaults (which the deleted ``Message.size_bytes`` hard-coded)."""
    sim = Simulator()
    net = Network(
        sim, full_mesh(3), latency=ConstantLatency(0.001),
        header_bytes=32, determinant_bytes=8,
    )
    net.register(1, lambda m: None)
    net.send(msg(body_bytes=100, piggyback=[1, 2, 3]))
    sim.run()
    assert net.stats.total_bytes() == 32 + 100 + 3 * 8
    assert net.stats.total_bytes() != HEADER_BYTES + 100 + 3 * DETERMINANT_BYTES
    assert not hasattr(Message, "size_bytes")


def test_stats_by_kind():
    sim, net = make_net()
    net.register(1, lambda m: None)
    net.send(msg(kind=MessageKind.APPLICATION, body_bytes=10))
    net.send(msg(kind=MessageKind.RECOVERY, mtype="ctl", body_bytes=20))
    net.send(msg(kind=MessageKind.RECOVERY, mtype="ctl", body_bytes=20))
    sim.run()
    app_n, app_b = net.stats.of_kind(MessageKind.APPLICATION)
    rec_n, rec_b = net.stats.of_kind(MessageKind.RECOVERY)
    assert (app_n, app_b) == (1, HEADER_BYTES + 10)
    assert (rec_n, rec_b) == (2, 2 * (HEADER_BYTES + 20))
    assert net.stats.total_messages() == 3


def test_broadcast_skips_self_and_sorts():
    sim, net = make_net(4)
    got = []
    for node in range(4):
        net.register(node, lambda m, node=node: got.append(m.dst))
    sent = net.broadcast(0, [3, 1, 2, 0], MessageKind.RECOVERY, "ping")
    sim.run()
    assert [m.dst for m in sent] == [1, 2, 3]
    assert sorted(got) == [1, 2, 3]


def test_broadcast_payload_fn():
    sim, net = make_net(3)
    payloads = {}
    net.register(1, lambda m: payloads.update({1: m.payload}))
    net.register(2, lambda m: payloads.update({2: m.payload}))
    net.broadcast(0, [1, 2], MessageKind.RECOVERY, "x", payload_fn=lambda d: {"dst": d})
    sim.run()
    assert payloads == {1: {"dst": 1}, 2: {"dst": 2}}


def test_trace_records_send_and_deliver():
    trace = TraceRecorder()
    sim, net = make_net(trace=trace)
    net.register(1, lambda m: None)
    net.send(msg())
    sim.run()
    assert trace.count("net", "send") == 1
    assert trace.count("net", "deliver") == 1


def test_message_ids_unique_per_network():
    """msg_ids are stamped at transmit time from a per-network counter."""
    sim, net = make_net()
    net.register(1, lambda m: None)
    a = net.send(msg())
    b = net.send(msg())
    assert (a.msg_id, b.msg_id) == (1, 2)
    # a second network starts its own sequence -- two runs in one process
    # never share id state (the counter is per instance, not module-global)
    sim2, net2 = make_net()
    net2.register(1, lambda m: None)
    c = net2.send(msg())
    assert c.msg_id == 1


def test_network_stats_record():
    stats = NetworkStats()
    stats.record(MessageKind.PROTOCOL, 100)
    stats.record(MessageKind.PROTOCOL, 50)
    assert stats.of_kind(MessageKind.PROTOCOL) == (2, 150)
    assert stats.total_bytes() == 150
