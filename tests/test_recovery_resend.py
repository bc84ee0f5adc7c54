"""Recovery does not re-send what the system already holds.

Two halves, each checked on the paper's E2 scenario (a second failure
during the first recovery) under both recovery algorithms:

* a depinfo reply carries each determinant's host mask, the leader ORs
  the masks of equal determinants, and the recovering process merges
  them into its log, so it does not piggyback a determinant the gather
  already showed to be stored at enough hosts;
* a completion names, per peer, the contiguous prefix of that peer's
  messages the recovered process has delivered, and the peer resends
  only what lies past it -- everything, when nothing was delivered.
"""

import pytest

from repro import build_system
from repro.experiments import failure_during_recovery
from repro.procs.failure import crash_at
from repro.recovery import blocking, nonblocking

from helpers import small_config


def _masks_by_det(wire):
    dets, masks = wire
    assert len(dets) == len(masks)
    return dict(zip(dets, masks))


@pytest.mark.parametrize("recovery", ["nonblocking", "blocking"])
def test_gathered_masks_reach_the_recovered_log(recovery, monkeypatch):
    """After ``begin_replay``, each gathered determinant's mask in the
    recovered log holds the OR of the reply masks and this host; from
    then on the recovered process piggybacks none of those the reply
    masks alone count as stable."""
    module = {"nonblocking": nonblocking, "blocking": blocking}[recovery]
    merges = []  # (the replies' OR, computed here, and the merged wire)
    merge = module.merge_depinfo

    def recording_merge(replies):
        replies = list(replies)
        expected = {}
        for reply in replies:
            for det, mask in _masks_by_det(reply).items():
                expected[det] = expected.get(det, 0) | mask
        merged = merge(replies)
        merges.append((expected, merged))
        return merged
    monkeypatch.setattr(module, "merge_depinfo", recording_merge)

    system = build_system(failure_during_recovery(recovery=recovery))
    replayed = []  # node ids, one per begin_replay
    #: node -> delivery ids its gather counted as stable
    held = {}
    piggybacked = []  # (node, delivery id) of items sent after a replay

    def watch(protocol):
        node_id = protocol.node.node_id
        begin_replay, piggyback_for = protocol.begin_replay, protocol._piggyback_for

        def checked_begin_replay(depinfo_wire):
            expected = next(e for e, m in merges if m is depinfo_wire)
            begin_replay(depinfo_wire)
            log, own = protocol.det_log, 1 << (node_id + 1)
            assert expected and set(expected) == set(depinfo_wire[0])
            for det, mask in expected.items():
                assert log.mask(det) & (mask | own) == mask | own
            held[node_id] = {
                det.delivery_id for det, mask in expected.items() if log.stable(mask)
            }
            replayed.append(node_id)

        def recorded_piggyback_for(dst):
            items = piggyback_for(dst)
            if node_id in held:
                piggybacked.extend((node_id, key) for key, _, _ in items)
            return items
        protocol.begin_replay = checked_begin_replay
        protocol._piggyback_for = recorded_piggyback_for

    def crashed(node, on_crash):
        def wiped():
            held.pop(node.node_id, None)  # a crash wipes what it learned
            on_crash()
        return wiped

    for node in system.nodes:
        watch(node.protocol)
        node.protocol.on_crash = crashed(node, node.protocol.on_crash)
    result = system.run()
    assert result.consistent
    assert sorted(replayed) == [3, 5]
    assert all(held[node] for node in replayed), "no gathered determinant was stable"
    assert piggybacked, "the recovered processes sent no piggyback"
    assert not [
        (node, key) for node, key in piggybacked if key in held.get(node, ())
    ]


def _watch_resends(system):
    """Wrap every live peer's ``on_peer_recovered``: per call, the peer,
    the recovered node, its ``through``, the ssns the peer's send log
    held for it, and the ssns of the ``retransmit_data`` it sent."""
    calls = []
    send = system.network.send
    current = []

    def recording_send(msg, *args, **kwargs):
        if current and msg.mtype == "retransmit_data":
            current[-1]["sent"].append(msg.payload["ssn"])
        return send(msg, *args, **kwargs)
    system.network.send = recording_send

    for node in system.nodes:
        protocol = node.protocol

        def on_peer_recovered(peer, through=-1, protocol=protocol,
                              real=protocol.on_peer_recovered):
            logged = [ssn for ssn, _ in protocol.send_log.messages_for(peer)]
            delivered = system.nodes[peer].delivered_ids
            current.append({
                "peer": protocol.node.node_id, "recovered": peer,
                "through": through, "logged": logged, "sent": [],
                "prefix_delivered": all(
                    (protocol.node.node_id, ssn) in delivered
                    for ssn in range(through + 1)),
            })
            try:
                real(peer, through)
            finally:
                calls.append(current.pop())
        protocol.on_peer_recovered = on_peer_recovered
    return calls


@pytest.mark.parametrize("recovery", ["nonblocking", "blocking"])
def test_peers_resend_only_past_the_recovered_prefix(recovery):
    """Every ``retransmit_data`` a live peer sends on a completion has an
    ssn above that completion's ``through``, and every logged ssn above
    it is sent."""
    system = build_system(failure_during_recovery(recovery=recovery))
    calls = _watch_resends(system)
    result = system.run()
    assert result.consistent
    assert calls, "no completion reached a live peer"
    assert any(call["through"] >= 0 for call in calls), "no prefix was named"
    for call in calls:
        assert call["prefix_delivered"], call
        assert all(ssn > call["through"] for ssn in call["sent"]), call
        assert call["sent"] == [s for s in call["logged"] if s > call["through"]]
    skipped = sum(
        len([s for s in call["logged"] if s <= call["through"]]) for call in calls)
    assert skipped, "the prefix skipped no resend"


@pytest.mark.parametrize("recovery", ["nonblocking", "blocking"])
def test_a_peer_with_nothing_delivered_resends_its_whole_log(recovery):
    """A crash before the victim delivered anything: its completion names
    ``through = -1`` to every peer, and a peer with messages logged for
    it (in flight when it crashed) resends all of them."""
    config = small_config(recovery=recovery, crashes=[crash_at(node=2, time=0.0005)])
    system = build_system(config)
    calls = _watch_resends(system)
    result = system.run()
    assert result.consistent
    in_flight = [call for call in calls if call["through"] == -1 and call["logged"]]
    assert in_flight, "no peer had an in-flight message for the victim"
    for call in in_flight:
        assert call["sent"] == call["logged"]
