"""Tests for the FBL protocol family's failure-free mechanics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig, build_system
from repro.causality.determinant import Determinant
from repro.net.network import Message, MessageKind
from repro.protocols.fbl import STABLE_HOST, FamilyBasedLogging
from repro.storage.volatile import host_mask

from helpers import small_config, unstable


def run_system(config):
    system = build_system(config)
    result = system.run()
    return system, result


def test_f_must_be_positive():
    with pytest.raises(ValueError):
        FamilyBasedLogging(f=0)


def test_replication_target_is_f_plus_one():
    assert FamilyBasedLogging(f=3).replication_target == 4


def test_sender_logs_every_app_message():
    system, result = run_system(small_config(n=4, hops=10))
    for node in system.nodes:
        # every app message this node sent is in its send log
        sent = [
            e for e in system.trace.select(category="net", node=node.node_id, action="send")
            if e.details.get("mtype") == "app"
        ]
        assert len(node.protocol.send_log) == len(sent)


def test_receiver_records_determinant_per_delivery():
    system, result = run_system(small_config(n=4, hops=10))
    for node in system.nodes:
        own = node.protocol.det_log.for_receiver(node.node_id)
        assert len(own) == node.app.delivered_count
        assert set(own) == set(range(node.app.delivered_count))


def test_propagation_stops_at_f_plus_one():
    """The defining FBL property: once a determinant is known to be at
    f + 1 hosts, it is never piggybacked again."""
    config = small_config(n=6, f=2, hops=30)
    system, result = run_system(config)
    for node in system.nodes:
        protocol = node.protocol
        for det in protocol.det_log.determinants():
            hosts = protocol.det_log.logged_at(det)
            if len(hosts) >= 3 or STABLE_HOST in hosts:
                assert protocol._det_stable(det)
                assert det not in unstable(protocol.det_log)


def test_visible_determinants_replicated_at_claimed_hosts():
    """The logged_at accounting must be sound: every host a determinant
    claims to be logged at actually stores it (no failures in this run,
    so optimistic accounting equals ground truth)."""
    config = small_config(n=6, f=1, hops=30)
    system, result = run_system(config)
    by_id = {node.node_id: node for node in system.nodes}
    for node in system.nodes:
        for det in node.protocol.det_log.determinants():
            for host in node.protocol.det_log.logged_at(det):
                if host == STABLE_HOST:
                    continue
                assert det in by_id[host].protocol.det_log, (
                    f"{det} claimed at host {host} which does not store it"
                )


def test_determinants_of_senders_reach_other_hosts():
    """A determinant whose receiver sent at least one later message must
    be stored at more than just the receiver (propagation happened)."""
    config = small_config(n=6, f=2, hops=30)
    system, result = run_system(config)
    for node in system.nodes:
        own = node.protocol.det_log.for_receiver(node.node_id)
        if not own or not len(node.protocol.send_log):
            continue
        earliest = own.get(0)
        if earliest is None:
            continue
        holders = sum(
            1 for other in system.nodes if earliest in other.protocol.det_log
        )
        assert holders >= 2


def test_checkpoint_captures_both_logs():
    system, result = run_system(small_config(n=4, hops=10))
    node = system.nodes[0]
    extra = node.protocol.checkpoint_extra()
    assert len(extra["send_log"]) == len(node.protocol.send_log)
    assert len(extra["det_log"]) == len(node.protocol.det_log.determinants())


def test_restore_rebuilds_logs_from_checkpoint():
    system, result = run_system(small_config(n=4, hops=10))
    node = system.nodes[0]
    fresh = FamilyBasedLogging(f=2)
    fresh.attach(node)
    fresh.on_restore(node.checkpoints.latest, node.protocol.checkpoint_extra())
    assert len(fresh.send_log) == len(node.protocol.send_log)
    assert len(fresh.det_log) == len(node.protocol.det_log)


def test_local_depinfo_wire_round_trips():
    system, result = run_system(small_config(n=4, hops=10))
    node = system.nodes[0]
    dets, masks = node.protocol.local_depinfo_wire()
    log = node.protocol.det_log
    held = log.determinants()
    # a reply carries the log's own objects, not copies, and beside each
    # the hosts the log knows to store it
    assert dets and len(dets) == len(held) == len(masks)
    assert all(sent is kept for sent, kept in zip(dets, held))
    assert masks == [log.mask(det) for det in held]


def test_dedupe_rejects_duplicate_ssn():
    """A retransmitted/regenerated message must not be delivered twice."""
    system, result = run_system(small_config(n=4, hops=10))
    for node in system.nodes:
        history = node.app.delivery_history
        assert len(history) == len(set(history))


def test_failure_free_run_has_no_recovery_traffic():
    system, result = run_system(small_config(n=6, hops=20))
    assert result.recovery_messages() == 0
    assert result.consistent


def test_higher_f_piggybacks_more():
    low = run_system(small_config(n=6, f=1, hops=25, seed=3))[1]
    high = run_system(small_config(n=6, f=4, hops=25, seed=3))[1]
    assert high.extra["piggyback_determinants"] >= low.extra["piggyback_determinants"]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "protocol,recovery,max_crashes",
    [
        ("fbl", "nonblocking", 2),
        ("fbl", "blocking", 2),
        ("sender_based", "nonblocking", 1),
        ("manetho", "nonblocking", 2),
        ("adaptive", "nonblocking", 2),
    ],
)
def test_unstable_cache_equals_full_scan_under_chaos(protocol, recovery, max_crashes, seed):
    """The O(1) end-of-run count is the cache's size, so the cache must
    track the log exactly through crash, checkpoint GC, depinfo load and
    restore -- on every FBL-family stack of the chaos matrix."""
    import dataclasses

    from test_chaos import chaos_config

    config = dataclasses.replace(
        chaos_config(protocol, recovery, max_crashes, seed), checkpoint_every=7
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent
    for node in system.nodes:
        # what stats()["unstable_determinants"] counted before it read
        # the cache: the log's full scan under the one stability predicate
        scanned = unstable(node.protocol.det_log)
        assert sorted(node.protocol._unstable.values()) == scanned
        assert node.protocol.stats()["unstable_determinants"] == len(scanned)


# ----------------------------------------------------------------------
# batch path == per-determinant path
# ----------------------------------------------------------------------
class PerDeterminantReference:
    """The determinant path as it was before the per-message loops: one
    ``merge`` + one ``_track`` per item, the stability test a method of
    the protocol.  Bound onto a built protocol instance by
    :func:`_as_reference`.  Two shapes follow the protocol's: ``_track``
    merges the mask it is given (own deliveries hand it the unmerged
    own-host mask), and piggyback items are ``(delivery_id, determinant,
    mask)``."""

    def _mask_stable(self, mask):
        return bool(mask & 1) or mask.bit_count() > self.f

    def _track(self, det, mask):
        mask = self.det_log.merge(det, mask)
        key = det.delivery_id
        if self._mask_stable(mask):
            was = self._unstable.pop(key, None)
            if was is not None and det.receiver == self.node.node_id:
                self._emit_det_stable(
                    self.node.sim.now, self.node.node_id,
                    det.rsn, det.sender, det.ssn,
                )
            if self._pending_outputs and det.receiver == self.node.node_id:
                self._check_pending_outputs()
        else:
            self._unstable[key] = det

    def _piggyback_for(self, dst):
        items = []
        dst_bit = host_mask((dst,))
        det_log = self.det_log
        for key in sorted(self._unstable):
            det = self._unstable[key]
            mask = det_log.mask(det)
            if mask & dst_bit:
                continue
            items.append((key, det, mask))
            self._track(det, det_log.merge(det, dst_bit))
        return items

    def _absorb_piggyback(self, msg):
        seen_at = host_mask((msg.src, self.node.node_id))
        merge = self.det_log.merge
        for _key, det, mask in msg.piggyback:
            self._track(det, merge(det, mask | seen_at))


def _as_reference(protocol):
    for name in ("_mask_stable", "_track", "_piggyback_for", "_absorb_piggyback"):
        method = getattr(PerDeterminantReference, name)
        setattr(protocol, name, method.__get__(protocol))


_N = 5
_small = st.integers(min_value=0, max_value=7)
_det_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["deliver", "deliver", "absorb", "send", "send", "det_ack",
             "det_push_ack", "gc_notice", "durable"]
        ),
        _small, _small,
        st.lists(st.tuples(_small, _small, _small, st.integers(0, 2 ** (_N + 1) - 1)),
                 max_size=5),
    ),
    max_size=40,
)


def _drive(system, ops):
    """Apply ``ops`` to node 0's protocol; the simulator never runs, so
    everything the protocol sends stays queued and only the determinant
    bookkeeping, the trace and the output device move."""
    protocol = system.nodes[0].protocol
    next_ssn = {}

    def items_of(raw):
        items = []
        for sender, receiver, rsn, mask in raw:
            sender, receiver = sender % _N, receiver % _N
            if sender != receiver:
                det = Determinant(sender, rsn, receiver, rsn)
                items.append((det.delivery_id, det, mask))
        return items

    def own(index):
        dets = sorted(protocol.det_log.for_receiver(0).values())
        return dets[index % len(dets)] if dets else None

    for op, a, b, raw in ops:
        peer = 1 + a % (_N - 1)
        if op == "deliver":
            ssn = next_ssn[peer] = next_ssn.get(peer, -1) + 1
            protocol.on_app_message(Message(
                peer, 0, MessageKind.APPLICATION, "app",
                {"data": {"chain": f"{peer}.0", "hops": b % 3}},
                10, items_of(raw), 0, ssn,
            ))
        elif op == "absorb":
            protocol.absorb_piggybacks([Message(
                peer, 0, MessageKind.APPLICATION, "app", {}, 10, items_of(raw))])
        elif op == "send":
            protocol.send_app(peer, {"chain": "0.9", "hops": 0}, 10)
        elif op == "det_ack":
            for _key, det, _mask in items_of(raw):
                protocol.on_protocol_message(Message(
                    peer, 0, MessageKind.PROTOCOL, "det_ack", {"det": det}))
        elif op == "det_push_ack" and own(b) is not None:
            protocol.on_protocol_message(Message(
                peer, 0, MessageKind.PROTOCOL, "det_push_ack",
                {"dets": [own(b), own(b + 1)]}))
        elif op == "gc_notice":
            protocol.on_protocol_message(Message(
                peer, 0, MessageKind.PROTOCOL, "gc_notice",
                {"covered": b, "ssn_prefix": b}))
        elif op == "durable" and own(b) is not None:
            # what a completed asynchronous stable write does (manetho)
            det = own(b)
            protocol._track(det, protocol.det_log.note_logged_at(det, STABLE_HOST))
            protocol._check_pending_outputs()
    return protocol


@settings(max_examples=60, deadline=None)
@given(ops=_det_ops)
@pytest.mark.parametrize(
    "protocol,f", [("fbl", 1), ("fbl", 2), ("sender_based", 1), ("manetho", _N)]
)
def test_batch_determinant_path_equals_per_determinant_reference(protocol, f, ops):
    """Any interleaving of deliveries, absorbs, sends, acks, push acks,
    GC notices and durable writes leaves the per-message loops and the
    per-determinant reference with the same cache, the same masks, the
    same trace (``det_stable`` and ``output.commit`` records in the same
    order among everything else) and the same committed outputs."""
    config = small_config(
        n=_N, protocol=protocol, f=f,
        workload_params={"hops": 2, "fanout": 0, "output_every": 2},
    )
    batch, reference = build_system(config), build_system(config)
    _as_reference(reference.nodes[0].protocol)
    new, old = _drive(batch, ops), _drive(reference, ops)
    assert new.f == old.f == f
    assert new._unstable == old._unstable
    assert new.det_log.to_state() == old.det_log.to_state()
    # (keys: a forged item may name a delivery the log knows under
    # another message; the cache keeps the latest, the log the first)
    assert sorted(new._unstable) == sorted(
        d.delivery_id for d in unstable(new.det_log))
    assert list(batch.trace.events) == list(reference.trace.events)
    assert [(o.output_id, o.payload) for o in batch.output_device.outputs] == [
        (o.output_id, o.payload) for o in reference.output_device.outputs]
    assert new._pending_outputs == old._pending_outputs
    assert new.piggyback_determinants_sent == old.piggyback_determinants_sent
