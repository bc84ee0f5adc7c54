"""Unit tests for the sequencer (ordinal service)."""

from repro.net.network import Message, MessageKind, Network
from repro.recovery.sequencer import Sequencer
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

from helpers import ConstantLatency, full_mesh


def make(n=4):
    sim = Simulator()
    trace = TraceRecorder()
    net = Network(sim, full_mesh(n + 1), latency=ConstantLatency(0.001), trace=trace)
    seq = Sequencer(n, sim, net, trace)
    seq.start()
    return sim, net, seq


def send(net, src, dst, mtype, payload=None):
    net.send(Message(src=src, dst=dst, kind=MessageKind.RECOVERY,
                     mtype=mtype, payload=payload or {}))


def collect(net, node_id):
    inbox = []
    net.register(node_id, inbox.append)
    return inbox


def test_ordinals_are_monotone():
    sim, net, seq = make()
    inbox0, inbox1 = collect(net, 0), collect(net, 1)
    send(net, 0, 4, "ord_request")
    send(net, 1, 4, "ord_request")
    sim.run()
    assert inbox0[0].payload["ord"] == 1
    assert inbox1[0].payload["ord"] == 2


def test_active_set_in_reply():
    sim, net, seq = make()
    collect(net, 0)
    inbox1 = collect(net, 1)
    send(net, 0, 4, "ord_request")
    sim.run()
    send(net, 1, 4, "ord_request")
    sim.run()
    active = inbox1[0].payload["active"]
    assert set(active) == {0, 1}
    assert active[0]["ord"] == 1
    assert not active[0]["served"]


def test_complete_retires_entry():
    sim, net, seq = make()
    collect(net, 0)
    send(net, 0, 4, "ord_request")
    sim.run()
    send(net, 0, 4, "recovery_complete", {"incarnation": 1, "epoch": 1})
    sim.run()
    assert seq.active == {}


def test_leader_done_marks_served():
    sim, net, seq = make()
    collect(net, 0)
    send(net, 0, 4, "ord_request")
    sim.run()
    # served maps peer -> the ordinal the leader served
    send(net, 0, 4, "leader_done", {"served": {0: 1}, "epoch": 1})
    sim.run()
    assert seq.active[0]["served"]


def test_stale_epoch_announcement_dropped():
    """A dead episode's announcement cannot touch the newer entry."""
    sim, net, seq = make()
    collect(net, 0)
    send(net, 0, 4, "ord_request")
    sim.run()
    send(net, 0, 4, "ord_request")  # re-crash: ord 2 supersedes ord 1
    sim.run()
    send(net, 0, 4, "leader_done", {"served": {0: 1}, "epoch": 1})
    sim.run()
    assert seq.stale_epoch_drops == 1
    assert not seq.active[0]["served"]


def test_re_request_supersedes():
    """A process that crashes again mid-recovery gets a fresh ordinal."""
    sim, net, seq = make()
    inbox0 = collect(net, 0)
    send(net, 0, 4, "ord_request")
    sim.run()
    send(net, 0, 4, "ord_request")
    sim.run()
    assert inbox0[-1].payload["ord"] == 2
    assert seq.active[0]["ord"] == 2


def test_status_request_returns_active_view():
    sim, net, seq = make()
    collect(net, 0)
    inbox1 = collect(net, 1)
    send(net, 0, 4, "ord_request")
    sim.run()
    send(net, 1, 4, "ord_status_request")
    sim.run()
    reply = inbox1[-1]
    assert reply.mtype == "status_reply"
    assert 0 in reply.payload["active"]


def test_unknown_message_ignored():
    sim, net, seq = make()
    send(net, 0, 4, "gibberish")
    sim.run()
    assert seq.active == {}
