"""Unit tests for the reliable transport layer."""

import pytest

from repro.net.faults import LinkFaultSpec, NetworkFaultModel, Partition, ScheduledDrop
from repro.net.network import Message, MessageKind, Network
from repro.net.transport import ReliableTransport, TransportParams
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

from helpers import ConstantLatency, full_mesh


def make_stack(n=3, faults=None, params=None, seed=0, trace=None):
    sim = Simulator()
    net = Network(
        sim,
        full_mesh(n),
        latency=ConstantLatency(0.001),
        rngs=RngRegistry(seed),
        trace=trace,
        faults=faults,
    )
    transport = ReliableTransport(sim, net, params=params, trace=trace)
    return sim, net, transport


def msg(src=0, dst=1, mtype="app", **kw):
    return Message(src=src, dst=dst, kind=MessageKind.APPLICATION, mtype=mtype, **kw)


def test_params_validation():
    with pytest.raises(ValueError):
        TransportParams(rto=0.0)
    with pytest.raises(ValueError):
        TransportParams(backoff=0.5)
    with pytest.raises(ValueError):
        TransportParams(max_retries=-1)


def test_timeout_backoff_and_cap():
    p = TransportParams(rto=0.1, backoff=2.0, max_rto=0.5)
    assert p.timeout_for(0) == pytest.approx(0.1)
    assert p.timeout_for(1) == pytest.approx(0.2)
    assert p.timeout_for(2) == pytest.approx(0.4)
    assert p.timeout_for(3) == pytest.approx(0.5)  # capped
    assert p.timeout_for(10) == pytest.approx(0.5)


def test_clean_channel_delivers_in_order_and_acks():
    sim, net, transport = make_stack()
    got = []
    net.register(1, lambda m: got.append(m.payload["i"]))
    for i in range(5):
        net.send(msg(payload={"i": i}))
    sim.run()
    assert got == [0, 1, 2, 3, 4]
    assert transport.unacked() == 0
    assert transport.stats.acks_sent > 0
    assert net.stats.retransmits == 0
    # acks are their own accounting class
    assert net.stats.messages["transport"] == transport.stats.acks_sent


def test_lost_message_is_retransmitted():
    model = NetworkFaultModel(
        scheduled_drops=[ScheduledDrop(src=0, dst=1, max_drops=1)]
    )
    sim, net, transport = make_stack(faults=model)
    got = []
    net.register(1, lambda m: got.append(m.payload["i"]))
    net.send(msg(payload={"i": 0}))
    sim.run()
    assert got == [0]
    assert net.stats.retransmits == 1
    assert transport.unacked() == 0


def test_reordered_messages_are_resequenced():
    model = NetworkFaultModel()
    sim, net, transport = make_stack(faults=model)
    order = []
    net.register(1, lambda m: order.append(m.payload["i"]))
    model.set_default(LinkFaultSpec(reorder_prob=1.0, reorder_delay=0.5))
    net.send(msg(payload={"i": 0}))
    model.set_default(LinkFaultSpec())
    net.send(msg(payload={"i": 1}))
    sim.run()
    assert order == [0, 1]  # raw net would deliver [1, 0]
    assert transport.stats.out_of_order_buffered == 1


def test_duplicates_are_suppressed():
    model = NetworkFaultModel(default=LinkFaultSpec(dup_prob=1.0))
    sim, net, transport = make_stack(faults=model)
    got = []
    net.register(1, lambda m: got.append(m.payload["i"]))
    net.send(msg(payload={"i": 0}))
    sim.run()
    assert got == [0]
    assert transport.stats.dup_suppressed >= 1


def test_heavy_loss_still_delivers_everything_in_order():
    model = NetworkFaultModel(
        default=LinkFaultSpec(loss_prob=0.3, dup_prob=0.1, reorder_prob=0.2)
    )
    sim, net, transport = make_stack(faults=model, seed=5)
    got = []
    net.register(1, lambda m: got.append(m.payload["i"]))
    for i in range(50):
        net.send(msg(payload={"i": i}))
    sim.run()
    assert got == list(range(50))
    assert net.stats.retransmits > 0
    assert transport.unacked() == 0


def test_gives_up_after_max_retries():
    model = NetworkFaultModel(default=LinkFaultSpec(loss_prob=1.0))
    params = TransportParams(rto=0.01, max_retries=3)
    sim, net, transport = make_stack(faults=model, params=params)
    net.register(1, lambda m: None)
    net.send(msg())
    sim.run()
    assert transport.stats.gave_up == 1
    assert transport.unacked() == 0
    # 1 original send + 3 retries, all lost
    assert net.stats.retransmits == 3
    assert net.stats.drops_by_cause["loss"] >= 4


def test_partition_heal_end_to_end():
    """Messages sent into a partition arrive after it heals, via retry."""
    model = NetworkFaultModel(partitions=[Partition([{0}, {1, 2}], end=0.2)])
    params = TransportParams(rto=0.05, max_retries=20)
    sim, net, transport = make_stack(faults=model, params=params)
    got = []
    net.register(1, lambda m: got.append((round(sim.now, 3), m.payload["i"])))
    net.send(msg(payload={"i": 0}))
    sim.run()
    assert len(got) == 1
    assert got[0][0] >= 0.2  # only after the heal
    assert got[0][1] == 0


def test_receiver_crash_resets_channel_epoch():
    sim, net, transport = make_stack()
    got = []
    net.register(1, lambda m: got.append(m.payload["i"]))
    net.send(msg(payload={"i": 0}))
    sim.run()
    epoch_before = transport._epoch.get((0, 1), 0)
    net.deregister(1)
    assert transport._epoch[(0, 1)] == epoch_before + 1
    assert transport._send_seq[(0, 1)] == 0
    # messages to the crashed node are dropped, not acked
    net.send(msg(payload={"i": 1}))
    sim.run()
    assert got == [0]
    assert transport.stats.gave_up == 1
    # after restart the fresh epoch delivers from seq 0 again
    net.register(1, lambda m: got.append(m.payload["i"]))
    net.send(msg(payload={"i": 2}))
    sim.run()
    assert got == [0, 2]


def test_sender_crash_keeps_inflight_messages_retrying():
    """A message the channel accepted outlives its sender's crash, like
    the seed's in-flight messages (they live in the network, not in the
    sender).  FBL's piggybacked determinants rely on this."""
    model = NetworkFaultModel(default=LinkFaultSpec(loss_prob=1.0))
    sim, net, transport = make_stack(faults=model, params=TransportParams(rto=0.01))
    got = []
    net.register(0, lambda m: None)
    net.register(1, lambda m: got.append(m.payload["i"]))
    net.send(msg(payload={"i": 0}))  # lost on first transmission
    net.deregister(0)  # sender crashes with the message unacked
    assert transport.unacked() == 1  # still the channel's responsibility
    model.set_default(LinkFaultSpec())  # network heals
    sim.run()
    assert got == [0]
    assert transport.unacked() == 0


def test_crashed_destination_aborts_pending():
    model = NetworkFaultModel(default=LinkFaultSpec(loss_prob=1.0))
    sim, net, transport = make_stack(faults=model, params=TransportParams(rto=10.0))
    net.register(0, lambda m: None)
    net.register(1, lambda m: None)
    net.send(msg())
    assert transport.unacked() == 1
    net.deregister(1)  # the *destination* crashes
    assert transport.unacked() == 0
    assert transport.stats.aborted_on_reset == 1


def test_stale_epoch_message_rejected():
    sim, net, transport = make_stack()
    got = []
    net.register(1, lambda m: got.append(m.payload))
    net.send(msg(payload={"pre": True}))  # establish channel state, epoch 0
    sim.run()
    net.deregister(1)  # bumps (0,1) to epoch 1
    net.register(1, lambda m: got.append(m.payload))
    net.send(msg(payload={"new": True}))  # receiver state now at epoch 1
    sim.run()
    assert {"new": True} in got
    # a straggler from the pre-crash connection arrives late
    stale = msg(payload={"old": True})
    stale.transport_seq = 1
    stale.transport_epoch = 0
    before = transport.stats.stale_dropped
    net.transmit(stale)
    sim.run()
    assert transport.stats.stale_dropped == before + 1
    assert {"old": True} not in got


def test_retransmissions_accounted_separately():
    model = NetworkFaultModel(
        scheduled_drops=[ScheduledDrop(src=0, dst=1, max_drops=2)]
    )
    sim, net, transport = make_stack(faults=model)
    net.register(1, lambda m: None)
    net.send(msg(body_bytes=100))
    sim.run()
    assert net.stats.retransmits == 2
    _, first_transmission_bytes = net.stats.of_kind(MessageKind.APPLICATION)
    assert net.stats.retransmit_bytes == 2 * first_transmission_bytes
    # first transmissions of app traffic unchanged by the retries
    assert net.stats.messages["application"] == 1


def test_deterministic_per_seed():
    def run(seed):
        model = NetworkFaultModel(
            default=LinkFaultSpec(loss_prob=0.2, dup_prob=0.1, reorder_prob=0.1)
        )
        sim, net, transport = make_stack(faults=model, seed=seed)
        got = []
        net.register(1, lambda m: got.append(m.payload["i"]))
        for i in range(30):
            net.send(msg(payload={"i": i}))
        sim.run()
        return (
            got,
            net.stats.retransmits,
            net.stats.drops_by_cause,
            transport.stats.as_dict(),
        )

    assert run(3) == run(3)
    assert run(3) != run(4)  # different seed, different fault pattern
