"""Detailed unit tests for coordinated checkpointing internals:
epochs, held sends, future-epoch buffering, and round solicitation."""

import pytest

from repro import build_system, crash_at
from repro.net.network import Message, MessageKind
from repro.storage.checkpoint import decode_image

from helpers import small_config


def coordinated_config(snapshot_every=8, **kw):
    kw.setdefault("workload_params", {"hops": 40, "fanout": 2})
    return small_config(
        protocol="coordinated", recovery="coordinated",
        protocol_params={"snapshot_every": snapshot_every},
        workload="uniform", **kw,
    )


class TestEpochs:
    def test_stale_epoch_messages_dropped(self):
        system = build_system(coordinated_config())
        system.start()
        system.sim.run(until=0.05)
        node = system.nodes[0]
        node.protocol.epoch = 3
        before = node.app.delivered_count
        node.receive(Message(
            src=1, dst=0, kind=MessageKind.APPLICATION, mtype="app",
            payload={"data": {"hops": 0}, "epoch": 1}, incarnation=0, ssn=900,
        ))
        assert node.app.delivered_count == before
        system.sim.run()

    def test_future_epoch_messages_buffered(self):
        system = build_system(coordinated_config())
        system.start()
        system.sim.run(until=0.05)
        node = system.nodes[0]
        before = node.app.delivered_count
        node.receive(Message(
            src=1, dst=0, kind=MessageKind.APPLICATION, mtype="app",
            payload={"data": {"hops": 0}, "epoch": 7}, incarnation=0, ssn=901,
        ))
        assert node.app.delivered_count == before
        assert len(node.protocol._future_epoch) == 1
        system.sim.run()

    def test_epochs_strictly_increase_across_rollbacks(self):
        system = build_system(coordinated_config(
            crashes=[crash_at(1, 0.03), crash_at(3, 3.0)],
            workload_params={"hops": 80, "fanout": 2},
        ))
        result = system.run()
        assert result.consistent
        assert {n.protocol.epoch for n in system.nodes} == {2}


class TestHolds:
    def test_holds_capture_and_release_sends(self):
        system = build_system(coordinated_config())
        result = system.run()
        for node in system.nodes:
            assert not node.protocol._holding
            assert node.protocol._held_sends == []
            assert node.protocol.hold_time_total >= 0.0

    def test_initiator_hold_time_tracked(self):
        system = build_system(coordinated_config(snapshot_every=5,
                                                 workload_params={"hops": 60, "fanout": 2}))
        system.run()
        committed = system.nodes[0].protocol.rounds_committed
        if committed:
            held = sum(n.protocol.hold_time_total for n in system.nodes)
            assert held > 0.0


class TestSnapshots:
    def test_held_sends_in_snapshot_records(self):
        """Round 0 must carry the initial sends as pending output of the
        cut -- otherwise rollback to it deadlocks the system."""
        system = build_system(coordinated_config())
        system.start()
        for node in system.nodes:
            record = decode_image(node.storage.peek("round:0"))
            expected = node.app.workload.initial_sends(node.node_id, system.config.n)
            assert len(record["held_sends"]) == len(expected)
        system.sim.run()

    def test_round_counts_recorded(self):
        system = build_system(coordinated_config(snapshot_every=5,
                                                 workload_params={"hops": 60, "fanout": 2}))
        system.run()
        node = system.nodes[0]
        for round_id, count in node.protocol._round_counts.items():
            assert count >= 0

    def test_rollback_query_replies_report_seen_epoch(self):
        """Replies must carry the max epoch *seen*, closing the
        concurrent-rollback epoch-collision race."""
        system = build_system(coordinated_config())
        system.start()
        manager = system.nodes[0].recovery
        manager._max_seen_epoch = 9
        inbox = []
        system.network.deregister(1)
        system.network.register(1, inbox.append)
        manager.on_control(Message(
            src=1, dst=0, kind=MessageKind.RECOVERY, mtype="rollback_query",
        ))
        system.sim.run(until=0.01)
        replies = [m for m in inbox if m.mtype == "rollback_reply"]
        assert replies and replies[0].payload["rollback_epoch"] == 9
        system.sim.run()


class TestRoundSolicitation:
    def test_pending_output_requests_a_round(self):
        """Outputs pending after traffic quiesces must still commit."""
        system = build_system(coordinated_config(
            snapshot_every=1000,  # count trigger will never fire
            workload_params={"hops": 15, "fanout": 2, "output_every": 3},
        ))
        result = system.run()
        assert result.outputs_committed > 0
        pending = sum(len(n.protocol._pending_outputs) for n in system.nodes)
        assert pending == 0
