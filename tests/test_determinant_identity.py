"""A determinant is one object from delivery to replay.

``Determinant`` is immutable, so no hop of the recovery path copies it:
a live host's depinfo reply carries its log's own objects (beside a
list of their host masks), the leader merges them by reference, and
the recovering process replays from those very objects.  A stable-log record holds the object its delivery made,
a delivery that waited for its record logs that same object, and a
restart's read-back puts it into the log as it is.
"""

import pytest

from repro import build_system
from repro.procs.failure import crash_at

from helpers import small_config
from test_adaptive import adaptive_config


@pytest.mark.parametrize("recovery", ["nonblocking", "blocking"])
def test_replay_runs_on_the_live_hosts_objects(recovery):
    """After one failure, every determinant the recovering process
    replays from is an object some live host's log answered with."""
    crashed = 2
    system = build_system(small_config(
        recovery=recovery, crashes=[crash_at(node=crashed, time=0.05)], hops=40))
    answered = {}  # id -> the object itself, so no id is reused

    def wrap_wire(protocol):
        wire = protocol.local_depinfo_wire

        def local_depinfo_wire():
            dets, masks = reply = wire()
            assert len(masks) == len(dets)
            answered.update((id(det), det) for det in dets)
            return reply
        protocol.local_depinfo_wire = local_depinfo_wire

    for node in system.nodes:
        if node.node_id != crashed:
            wrap_wire(node.protocol)
    protocol = system.nodes[crashed].protocol
    replayed = []
    begin_replay = protocol.begin_replay

    def capture(depinfo_wire):
        start = protocol.node.app.delivered_count
        begin_replay(depinfo_wire)
        replayed.extend(
            det for rsn, det in protocol._replay_orders.items() if rsn >= start)
    protocol.begin_replay = capture

    result = system.run()
    assert result.consistent
    assert replayed, "the failure left nothing to replay"
    assert all(answered.get(id(det)) is det for det in replayed)


def _restore_reads(node):
    """Wrap ``node``'s stable-log read-back: for each read, the entries,
    the delivery count the checkpoint restored, and this node's own
    ``rsn -> determinant`` once the protocol has consumed them."""
    reads = []
    log_read = node.storage.log_read

    def read(log, entry_bytes, on_done, stall_node=None):
        def loaded(entries):
            restored_to = node.app.delivered_count
            on_done(entries)
            reads.append((
                entries, restored_to,
                node.protocol.det_log.for_receiver(node.node_id),
            ))
        return log_read(log, entry_bytes, loaded, stall_node)
    node.storage.log_read = read
    return reads


def _adaptive_dets(entry):
    return [entry[1]] if entry[0] in ("sync", "det") else list(entry[1])


STABLE_LOGS = {
    "pessimistic": (
        small_config(protocol="pessimistic", recovery="local", hops=40,
                     crashes=[crash_at(node=2, time=0.1)]),
        2, lambda entry: [entry[0]],
    ),
    "manetho": (
        small_config(protocol="manetho", hops=40, protocol_params={},
                     crashes=[crash_at(node=2, time=0.1)]),
        2, lambda det: [det],
    ),
    "adaptive": (
        adaptive_config(initial_mode="pessimistic",
                        crashes=[crash_at(node=1, time=0.05)]),
        1, _adaptive_dets,
    ),
}


@pytest.mark.parametrize("protocol", sorted(STABLE_LOGS))
def test_restore_puts_the_records_object_into_the_log(protocol):
    config, crashed, dets_of = STABLE_LOGS[protocol]
    system = build_system(config)
    reads = _restore_reads(system.nodes[crashed])
    result = system.run()
    assert result.consistent
    assert reads, "no stable-log read-back happened"
    checked = 0
    for entries, restored_to, own in reads:
        for entry in entries:
            for det in dets_of(entry):
                if det.rsn >= restored_to:
                    assert own.get(det.rsn) is det
                    checked += 1
    assert checked, "no record past the checkpoint to replay from"


SYNCHRONOUS = {
    "pessimistic": small_config(protocol="pessimistic", recovery="local", hops=40),
    "adaptive": adaptive_config(initial_mode="pessimistic"),
}


@pytest.mark.parametrize("protocol", sorted(SYNCHRONOUS))
def test_synchronous_delivery_logs_the_records_object(protocol):
    """A delivery that waited for its stable-log record (pessimistic, or
    adaptive in pessimistic mode) puts the record's own determinant into
    the volatile log, not a second, equal one."""
    system = build_system(SYNCHRONOUS[protocol])
    records = []
    for node in system.nodes:
        def log_append(log, entry, size_bytes, on_done=None, stall_node=None,
                       node=node, append=node.storage.log_append):
            records.append((node, entry))
            return append(log, entry, size_bytes, on_done, stall_node)
        node.storage.log_append = log_append
    assert system.run().consistent
    checked = 0
    for node, entry in records:
        if protocol == "adaptive" and entry[0] != "sync":
            continue
        det = entry[1] if protocol == "adaptive" else entry[0]
        logged = node.protocol.det_log.for_receiver(node.node_id).get(det.rsn)
        if logged is not None:
            assert logged is det
            checked += 1
    assert checked, "no synchronous record left to compare"
