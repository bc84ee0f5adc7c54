"""Edge-case tests for node routing and the shared protocol machinery."""

import pytest

from repro import build_system, crash_at
from repro.core.node import NodeState
from repro.net.network import Message, MessageKind
from repro.procs.process import OUTPUT_DST

from helpers import small_config


def started(**kw):
    system = build_system(small_config(**kw))
    system.start()
    return system


class TestBlockedRouting:
    def test_retransmit_data_deferred_while_blocked(self):
        """Blocked means no application progress -- including deliveries
        that arrive as retransmissions."""
        system = started(n=4, hops=10)
        node = system.nodes[0]
        node.block()
        before = node.app.delivered_count
        node.receive(Message(
            src=1, dst=0, kind=MessageKind.PROTOCOL, mtype="retransmit_data",
            payload={"ssn": 950, "data": {"hops": 0}}, incarnation=0, ssn=950,
        ))
        assert node.app.delivered_count == before
        node.unblock()
        assert node.app.delivered_count == before + 1
        system.sim.run()

    def test_retransmit_request_served_while_blocked(self):
        """Control that serves someone else's recovery must not be
        delayed by our own blocking."""
        system = started(n=4, hops=10)
        system.sim.run(until=0.02)
        node = system.nodes[0]
        node.block()
        sent_before = system.network.stats.total_messages()
        node.receive(Message(
            src=1, dst=0, kind=MessageKind.PROTOCOL, mtype="retransmit_request",
            payload={"requester": 1}, incarnation=0,
        ))
        assert system.network.stats.total_messages() >= sent_before
        node.unblock()
        system.sim.run()

    def test_recovery_control_bypasses_blocking(self):
        system = started(n=4, hops=10, recovery="blocking")
        node = system.nodes[0]
        node.block()
        # a recovery_complete from a peer must be processed immediately
        node.receive(Message(
            src=2, dst=0, kind=MessageKind.RECOVERY, mtype="recovery_complete",
            payload={"incarnation": 1}, incarnation=1,
        ))
        assert node.incvector.get(2) == 1
        node.unblock()
        system.sim.run()


class TestRestoreQueue:
    def test_recovery_control_queued_during_restore(self):
        system = started(n=4, hops=10, crashes=[crash_at(2, 0.02)])
        config = system.config
        system.sim.run(until=0.02 + config.detection_delay + 0.01)
        node = system.nodes[2]
        assert node.state == NodeState.RESTORING
        node.receive(Message(
            src=1, dst=2, kind=MessageKind.RECOVERY, mtype="recovery_complete",
            payload={"incarnation": 5}, incarnation=5,
        ))
        assert len(node._restore_queue) == 1
        system.sim.run()
        # delivered to the manager after restore: incvector updated
        assert node.incvector.get(1) == 5

    def test_app_messages_dropped_during_restore(self):
        system = started(n=4, hops=10, crashes=[crash_at(2, 0.02)])
        config = system.config
        system.sim.run(until=0.02 + config.detection_delay + 0.01)
        node = system.nodes[2]
        before = node.app.delivered_count
        node.receive(Message(
            src=1, dst=2, kind=MessageKind.APPLICATION, mtype="app",
            payload={"data": {"hops": 0}}, incarnation=0, ssn=960,
        ))
        assert node.app.delivered_count == before
        system.sim.run()


class TestOutputRouting:
    def test_output_sends_never_hit_the_network(self):
        system = started(n=4, hops=10,
                         workload_params={"hops": 10, "fanout": 1, "output_every": 1})
        system.sim.run()
        for event in system.trace.select(category="net", action="send"):
            assert event.details.get("dst") != OUTPUT_DST

    def test_output_ids_deterministic_per_delivery(self):
        system = started(n=4, hops=10,
                         workload_params={"hops": 10, "fanout": 1, "output_every": 2})
        system.sim.run()
        for record in system.output_device.outputs:
            node_id, rsn, index = record.output_id
            assert 0 <= node_id < 4
            assert rsn >= 0 and index == 0

    def test_client_server_receipts(self):
        system = build_system(small_config(
            n=4, workload="client_server",
            workload_params={"requests": 4, "output_replies": True},
        ))
        result = system.run()
        assert result.consistent
        by_node = system.output_device.by_node()
        assert set(by_node) == {0}  # only the server externalises
        assert len(by_node[0]) == 3 * 4  # three clients, four requests each


class TestRetransmissionHelpers:
    def test_request_retransmissions_noop_when_not_replaying(self):
        system = started(n=4, hops=10)
        before = system.network.stats.total_messages()
        system.nodes[0].protocol.request_retransmissions_from(1)
        assert system.network.stats.total_messages() == before
        system.sim.run()

    def test_serve_retransmissions_resends_logged_messages(self):
        system = started(n=4, hops=10)
        system.sim.run(until=0.05)
        sender = next(n for n in system.nodes if len(n.protocol.send_log))
        target = sender.protocol.send_log.to_state()[0][0]  # a destination with logged data
        before = system.network.stats.total_messages()
        sender.protocol._serve_retransmissions(target)
        assert system.network.stats.total_messages() > before
        system.sim.run()


class TestIncvectorMerging:
    def test_incvector_never_decreases(self):
        system = started(n=4, hops=10, crashes=[crash_at(2, 0.02)])
        system.sim.run()
        node = system.nodes[0]
        node.incvector[2] = 7
        node.recovery.on_control(Message(
            src=2, dst=0, kind=MessageKind.RECOVERY, mtype="recovery_complete",
            payload={"incarnation": 3}, incarnation=3,
        ))
        assert node.incvector[2] == 7
