"""Unit tests for the network fault models and their Network integration."""

import random

import pytest

from repro.net.faults import (
    FaultDecision,
    LinkFaultSpec,
    NetworkFaultModel,
    Partition,
    ScheduledDrop,
)
from repro.net.network import Message, MessageKind, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

from helpers import ConstantLatency, full_mesh


def make_net(n=3, faults=None, trace=None, seed=0):
    sim = Simulator()
    net = Network(
        sim,
        full_mesh(n),
        latency=ConstantLatency(0.001),
        rngs=RngRegistry(seed),
        trace=trace,
        faults=faults,
    )
    return sim, net


def msg(src=0, dst=1, mtype="app", **kw):
    return Message(src=src, dst=dst, kind=MessageKind.APPLICATION, mtype=mtype, **kw)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_spec_rejects_bad_probability():
    with pytest.raises(ValueError):
        LinkFaultSpec(loss_prob=1.5)
    with pytest.raises(ValueError):
        LinkFaultSpec(dup_prob=-0.1)
    with pytest.raises(ValueError):
        LinkFaultSpec(reorder_delay=-1.0)


def test_partition_needs_two_disjoint_groups():
    with pytest.raises(ValueError):
        Partition([{0, 1, 2}])
    with pytest.raises(ValueError):
        Partition([{0, 1}, {1, 2}])
    with pytest.raises(ValueError):
        Partition([{0}, {1}], start=2.0, end=1.0)


def test_partition_severs_only_across_groups_while_active():
    p = Partition([{0, 1}, {2, 3}], start=1.0, end=2.0)
    assert not p.severs(0, 2, 0.5)  # not yet active
    assert p.severs(0, 2, 1.0)
    assert p.severs(2, 1, 1.5)
    assert not p.severs(0, 1, 1.5)  # same group
    assert not p.severs(0, 4, 1.5)  # 4 in no group: unaffected
    assert not p.severs(0, 2, 2.0)  # healed (end exclusive)


def test_scheduled_drop_filters_and_budget():
    d = ScheduledDrop(src=0, dst=1, mtype="app", start=1.0, end=2.0, max_drops=2)
    assert not d.claims(0, 1, "app", 0.5)  # before window
    assert not d.claims(0, 2, "app", 1.5)  # wrong dst
    assert not d.claims(0, 1, "ack", 1.5)  # wrong mtype
    assert d.claims(0, 1, "app", 1.5)
    assert d.claims(0, 1, "app", 1.6)
    assert not d.claims(0, 1, "app", 1.7)  # budget exhausted


# ----------------------------------------------------------------------
# decision logic
# ----------------------------------------------------------------------
def test_decide_order_partition_beats_loss():
    model = NetworkFaultModel(
        default=LinkFaultSpec(loss_prob=0.999),
        partitions=[Partition([{0}, {1}])],
    )
    decision = model.decide(0, 1, "app", 0.0, random.Random(0))
    assert decision.drop_cause == "partition"


def test_decide_no_faults_draws_nothing_from_rng():
    """An all-zero spec must not consume RNG state (determinism)."""
    model = NetworkFaultModel()
    rng = random.Random(42)
    before = rng.getstate()
    assert model.decide(0, 1, "app", 0.0, rng) is not None
    assert rng.getstate() == before


def test_decide_loss_is_deterministic_per_seed():
    model = NetworkFaultModel(default=LinkFaultSpec(loss_prob=0.5))
    outcomes1 = [
        model.decide(0, 1, "app", 0.0, rng).dropped
        for rng in [random.Random(7)]
        for _ in range(20)
    ]
    outcomes2 = [
        model.decide(0, 1, "app", 0.0, rng).dropped
        for rng in [random.Random(7)]
        for _ in range(20)
    ]
    assert outcomes1 == outcomes2
    assert any(outcomes1) and not all(outcomes1)


def test_per_link_override_beats_default():
    model = NetworkFaultModel(default=LinkFaultSpec(loss_prob=1.0))
    model.set_link(0, 1, LinkFaultSpec())  # clean link
    assert not model.decide(0, 1, "app", 0.0, random.Random(0)).dropped
    assert model.decide(0, 2, "app", 0.0, random.Random(0)).dropped


# ----------------------------------------------------------------------
# Network integration
# ----------------------------------------------------------------------
def test_network_drops_are_split_by_kind_and_cause():
    model = NetworkFaultModel(default=LinkFaultSpec(loss_prob=1.0))
    sim, net = make_net(faults=model)
    net.register(1, lambda m: None)
    net.send(msg())  # lost (loss_prob=1)
    net.send(Message(src=0, dst=1, kind=MessageKind.RECOVERY, mtype="r"))
    model.set_default(LinkFaultSpec())  # heal
    net.send(msg(dst=2))  # no handler at 2
    sim.run()
    assert net.stats.dropped == 3
    assert net.stats.drops_by_cause == {"loss": 2, "no_handler": 1}
    assert net.stats.drops_by_kind == {"application": 2, "recovery": 1}


def test_partition_drops_with_cause_and_heals():
    model = NetworkFaultModel(partitions=[Partition([{0}, {1}], end=1.0)])
    sim, net = make_net(faults=model)
    got = []
    net.register(1, got.append)
    net.send(msg())
    sim.run()
    assert got == [] and net.stats.drops_by_cause == {"partition": 1}
    sim.schedule_at(1.0, lambda: net.send(msg()))
    sim.run()
    assert len(got) == 1  # healed


def test_duplication_delivers_twice_and_is_counted():
    model = NetworkFaultModel(default=LinkFaultSpec(dup_prob=1.0))
    sim, net = make_net(faults=model)
    got = []
    net.register(1, got.append)
    net.send(msg())
    sim.run()
    assert len(got) == 2
    assert net.stats.duplicates_injected == 1
    # accounting charges the wire once per *send*, not per copy
    assert net.stats.messages == {"application": 1}


def test_reordering_lets_later_message_overtake():
    model = NetworkFaultModel()
    sim, net = make_net(faults=model)
    order = []
    net.register(1, lambda m: order.append(m.payload["i"]))
    # first message reordered (forced), second clean: 1 must overtake 0
    model.set_default(LinkFaultSpec(reorder_prob=1.0, reorder_delay=0.5))
    net.send(msg(payload={"i": 0}))
    model.set_default(LinkFaultSpec())
    net.send(msg(payload={"i": 1}))
    sim.run()
    assert order == [1, 0]


def test_fault_decisions_use_dedicated_stream():
    """Fault draws (decisions *and* duplicate latencies) come from the
    ``net.faults`` stream: the ``net.latency`` stream consumes exactly one
    draw per surviving send, with or without faults enabled."""
    from repro.net.latency import AtmLinkModel

    sim, net = make_net()
    net.latency = AtmLinkModel()
    net.register(1, lambda m: None)
    for _ in range(5):
        net.send(msg())
    sim.run()

    model = NetworkFaultModel(
        default=LinkFaultSpec(dup_prob=0.9, reorder_prob=0.5)
    )
    sim2, net2 = make_net(faults=model)
    net2.latency = AtmLinkModel()
    net2.register(1, lambda m: None)
    for _ in range(5):
        net2.send(msg())
    sim2.run()

    assert net2.stats.duplicates_injected > 0  # faults actually fired
    assert (
        net.rngs.stream("net.latency").getstate()
        == net2.rngs.stream("net.latency").getstate()
    )
