"""Unit tests for volatile logs, and the row-based logs held equal to
the dict-based ones they replaced."""

from typing import Any, Callable, Dict, Iterable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.determinant import Determinant
from repro.storage.volatile import DeliveryId, DeterminantLog, Item, SendLog, host_mask

from helpers import send_log_lookup, unstable


def det(sender=0, ssn=0, receiver=1, rsn=0):
    return Determinant(sender=sender, ssn=ssn, receiver=receiver, rsn=rsn)


class TestSendLog:
    def test_log_and_lookup(self):
        log = SendLog()
        log.log(2, 0, {"x": 1}, 128)
        payload, size = send_log_lookup(log, 2, 0)
        assert payload == {"x": 1}
        assert size == 128
        assert send_log_lookup(log, 2, 1) is None

    def test_logged_payload_is_equal_and_each_read_a_fresh_decode(self):
        """The log keeps the payload's image: every read, by
        ``messages_for`` or ``to_state``, decodes a new dict equal to the
        one sent."""
        log, payload = SendLog(), {"chain": "0.1", "hops": 3, "path": [1, (2, 3)]}
        log.log(2, 0, payload, 128)
        reads = [send_log_lookup(log, 2, 0)[0], send_log_lookup(log, 2, 0)[0],
                 log.to_state()[0][2]]
        assert all(read == payload for read in reads)
        assert len({id(read) for read in reads + [payload]}) == 4
        assert reads[0]["path"] is not reads[1]["path"]

    def test_mutating_a_sent_payload_does_not_change_the_replay(self):
        """Neither the sender's dict nor a reader's copy is the logged
        payload: changing either after ``log`` replays the original."""
        log, payload = SendLog(), {"x": 1}
        log.log(2, 0, payload, 128)
        payload["x"] = 2
        send_log_lookup(log, 2, 0)[0]["x"] = 3
        assert log.messages_for(2) == [(0, ({"x": 1}, 128))]
        assert log.to_state() == [(2, 0, {"x": 1}, 128)]

    def test_duplicate_log_ignored(self):
        log = SendLog()
        log.log(2, 0, {"x": 1}, 128)
        log.log(2, 0, {"x": 999}, 128)
        assert send_log_lookup(log, 2, 0)[0] == {"x": 1}
        assert log.bytes_logged == 128

    def test_messages_for_sorted_by_ssn(self):
        log = SendLog()
        log.log(2, 3, {}, 10)
        log.log(2, 1, {}, 10)
        log.log(3, 0, {}, 10)
        assert [ssn for ssn, _ in log.messages_for(2)] == [1, 3]

    def test_prune_upto(self):
        log = SendLog()
        for ssn in range(5):
            log.log(2, ssn, {}, 10)
        dropped = log.prune_upto(2, 2)
        assert dropped == 3
        assert [ssn for ssn, _ in log.messages_for(2)] == [3, 4]
        assert log.bytes_logged == 20

    def test_clear_on_crash(self):
        log = SendLog()
        log.log(2, 0, {}, 10)
        log.clear()
        assert len(log) == 0
        assert log.bytes_logged == 0

    def test_state_round_trip(self):
        log = SendLog()
        log.log(2, 0, {"k": "v"}, 64)
        log.log(3, 1, {"k": "w"}, 32)
        restored = SendLog()
        restored.load_state(log.to_state())
        assert send_log_lookup(restored, 2, 0)[0] == {"k": "v"}
        assert restored.bytes_logged == 96


class TestDeterminantLog:
    def test_add_new_returns_true(self):
        log = DeterminantLog()
        assert log.add(det()) is True
        assert log.add(det()) is False

    def test_logged_at_merges(self):
        log = DeterminantLog()
        d = det()
        log.add(d, logged_at=(1,))
        log.add(d, logged_at=(2, 3))
        assert log.logged_at(d) == frozenset({1, 2, 3})

    def test_note_logged_at_creates_if_missing(self):
        log = DeterminantLog()
        d = det()
        log.note_logged_at(d, 5)
        assert d in log
        assert log.logged_at(d) == frozenset({5})

    def test_unstable_filters_by_replication(self):
        log = DeterminantLog()
        d1 = det(rsn=0)
        d2 = det(rsn=1)
        log.add(d1, logged_at=(1, 2, 3))
        log.add(d2, logged_at=(1,))
        log.f = 2
        assert unstable(log) == [d2]
        log.f = 3
        assert unstable(log) == [d1, d2]

    def test_stable_host_alone_makes_a_determinant_stable(self):
        """The log and the protocol used to disagree here: the scan
        counted hosts and ignored the stable-storage bit."""
        log = DeterminantLog()
        d = det()
        assert log.stable(log.note_logged_at(d, -1))  # fbl.STABLE_HOST
        log.f = 2
        assert unstable(log) == []
        assert not log.stable(log.note_logged_at(det(rsn=1), 4))
        assert unstable(log) == [det(rsn=1)]

    def test_for_receiver(self):
        log = DeterminantLog()
        log.add(det(receiver=1, rsn=0))
        log.add(det(receiver=1, rsn=1, ssn=1))
        log.add(det(receiver=2, rsn=0, ssn=2))
        orders = log.for_receiver(1)
        assert set(orders) == {0, 1}

    def test_contains_checks_exact_determinant(self):
        log = DeterminantLog()
        log.add(det(sender=0, ssn=0, receiver=1, rsn=0))
        assert det(sender=0, ssn=0, receiver=1, rsn=0) in log
        # same delivery slot, different message: not "contained"
        assert det(sender=0, ssn=9, receiver=1, rsn=0) not in log

    def test_state_round_trip(self):
        log = DeterminantLog()
        d = det()
        log.add(d, logged_at=(1, 4))
        restored = DeterminantLog()
        restored.load_state(log.to_state())
        assert d in restored
        assert restored.logged_at(d) == frozenset({1, 4})

    def test_clear_on_crash(self):
        log = DeterminantLog()
        log.add(det())
        log.clear()
        assert len(log) == 0


#: -1 is the stable-storage pseudo-host (``fbl.STABLE_HOST``)
_hosts = st.integers(min_value=-1, max_value=12)
_log_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "note", "merge"]),
        st.integers(min_value=1, max_value=3),   # receiver
        st.integers(min_value=0, max_value=5),   # rsn
        st.lists(_hosts, max_size=4),
        st.integers(min_value=0, max_value=1),   # which message fills the slot
    ),
    max_size=50,
)


@settings(max_examples=80)
@given(ops=_log_ops, target=st.integers(min_value=1, max_value=5))
def test_determinant_log_host_masks_match_a_set_model(ops, target):
    """The bitmask host sets against the ``Dict[key, set]`` they replaced.
    A slot may be drawn with a second message: the first determinant
    logged owns the slot, the second's hosts merge into its set."""
    log = DeterminantLog()
    model = {}  # delivery_id -> (the slot's determinant, its hosts)
    for op, receiver, rsn, hosts, message in ops:
        d = det(receiver=receiver, rsn=rsn, ssn=rsn + 10 * message)
        owner, known = model.get(d.delivery_id, (d, None))
        if op == "add":
            assert log.add(d, logged_at=hosts) == (known is None)
            merged = (known or set()) | set(hosts)
        elif op == "merge":
            merged = (known or set()) | set(hosts)
            assert log.merge(d, host_mask(hosts)) == host_mask(merged)
        else:
            host = hosts[0] if hosts else 0
            merged = (known or set()) | {host}
            assert log.note_logged_at(d, host) == host_mask(merged)
        model[d.delivery_id] = (owner, merged)
        assert log.mask(d) == host_mask(merged)
        assert (d in log) == (d == owner)
    assert len(log) == len(model)
    assert log.determinants() == sorted(owner for owner, _ in model.values())
    for d in log.determinants():
        assert log.logged_at(d) == frozenset(model[d.delivery_id][1])
    log.f = target - 1
    assert unstable(log) == sorted(
        owner for owner, hosts in model.values()
        if len(hosts) < target and -1 not in hosts
    )
    assert log.logged_at(det(receiver=9)) == frozenset()
    restored = DeterminantLog()
    restored.load_state(log.to_state())
    assert restored.to_state() == log.to_state()
    for d in log.determinants():
        assert restored.logged_at(d) == log.logged_at(d)


# -- the row-based logs against the dict-based references ------------------
Logged = Tuple[Dict[str, Any], int]


class DictSendLog:
    """The dict-based send log the row-based :class:`SendLog` replaced,
    kept verbatim as its reference.

    Per destination, ``ssn -> (payload, size)``; holds the application
    payload so the sender can retransmit during a receiver's recovery.
    """

    def __init__(self) -> None:
        self._by_dst: Dict[int, Dict[int, Logged]] = {}
        self.bytes_logged = 0
        #: cumulative bytes released by checkpoint-driven pruning
        self.bytes_pruned = 0
        #: cumulative entries released by checkpoint-driven pruning
        self.entries_pruned = 0

    def log(self, dst: int, ssn: int, payload: Dict[str, Any], size_bytes: int) -> None:
        """Record an outgoing message for possible replay."""
        logged = self._by_dst.get(dst)
        if logged is None:
            logged = self._by_dst[dst] = {}
        elif ssn in logged:
            return  # duplicate regeneration during replay
        logged[ssn] = (payload, size_bytes)
        self.bytes_logged += size_bytes

    def messages_for(self, dst: int) -> List[Tuple[int, Logged]]:
        """All logged ``(ssn, (payload, size))`` pairs destined for
        ``dst``, by ssn."""
        return sorted(self._by_dst.get(dst, {}).items())

    def prune_upto(self, dst: int, ssn: int) -> int:
        """Garbage-collect entries for ``dst`` with ssn <= the given bound."""
        logged = self._by_dst.get(dst, {})
        victims = [key for key in logged if key <= ssn]
        for key in victims:
            size = logged.pop(key)[1]
            self.bytes_logged -= size
            self.bytes_pruned += size
        self.entries_pruned += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Crash: the send log is volatile."""
        self._by_dst.clear()
        self.bytes_logged = 0

    def to_state(self) -> List[Tuple[int, int, Dict[str, Any], int]]:
        """Serializable snapshot: list of (dst, ssn, payload, size)."""
        return [
            (dst, ssn, payload, size)
            for dst in sorted(self._by_dst)
            for ssn, (payload, size) in sorted(self._by_dst[dst].items())
        ]

    def load_state(self, state: List[Tuple[int, int, Dict[str, Any], int]]) -> None:
        """Rebuild from a checkpointed snapshot."""
        self.clear()
        for dst, ssn, payload, size in state:
            self.log(dst, ssn, payload, size)

    def __len__(self) -> int:
        return sum(map(len, self._by_dst.values()))


class DictDeterminantLog:
    """The dict-based determinant log the row-based
    :class:`DeterminantLog` replaced, kept verbatim as its reference:
    two dicts keyed by ``delivery_id``, the determinant and its host
    mask."""

    def __init__(self) -> None:
        self._dets: Dict[DeliveryId, Determinant] = {}
        self._masks: Dict[DeliveryId, int] = {}
        self.f: float = float("inf")
        self.entries_pruned = 0

    def merge(self, det: Determinant, mask: int) -> int:
        key = det.delivery_id
        known = self._masks.get(key)
        if known is None:
            self._dets[key] = det
            known = 0
        self._masks[key] = known = known | mask
        return known

    def add(self, det: Determinant, logged_at: Iterable[int] = ()) -> bool:
        new = det.delivery_id not in self._dets
        self.merge(det, host_mask(logged_at))
        return new

    def note_logged_at(self, det: Determinant, host: int) -> int:
        return self.merge(det, 1 << (host + 1))

    def mask(self, det: Determinant) -> int:
        return self._masks.get(det.delivery_id, 0)

    def determinants(self) -> List[Determinant]:
        return sorted(self._dets.values())

    def spread(
        self, dst: int, unstable: Dict[DeliveryId, Determinant], me: int,
        on_stable: Callable[[Determinant, bool], None],
    ) -> List[Item]:
        items = []
        masks, f, dst_bit = self._masks, self.f, 1 << (dst + 1)
        for key in sorted(unstable):
            mask = masks[key]
            if mask & dst_bit:
                continue
            det = unstable[key]
            items.append((key, det, mask))
            masks[key] = mask = mask | dst_bit
            if mask & 1 or mask.bit_count() > f:
                del unstable[key]
                if key[0] == me:
                    on_stable(det, True)
        return items

    def absorb(
        self, items: Iterable[Item], hosts: Iterable[int],
        unstable: Dict[DeliveryId, Determinant], me: int,
        on_stable: Callable[[Determinant, bool], None],
    ) -> None:
        masks, f, seen_at = self._masks, self.f, 0
        for host in hosts:
            seen_at |= 1 << (host + 1)
        for key, det, mask in items:
            known = masks.get(key)
            if known is None:
                self._dets[key] = det
                known = 0
            masks[key] = mask = known | mask | seen_at
            if not (mask & 1 or mask.bit_count() > f):
                unstable[key] = det
            elif key[0] == me:
                on_stable(det, unstable.pop(key, None) is not None)
            elif key in unstable:
                del unstable[key]

    def for_receiver(self, receiver: int) -> Dict[int, Determinant]:
        return {
            rsn: det for (recv, rsn), det in self._dets.items() if recv == receiver
        }

    def __contains__(self, det: Determinant) -> bool:
        return self._dets.get(det.delivery_id) == det

    def drop_receiver_prefix(self, receiver: int, before_rsn: int) -> int:
        victims = [
            key for key in self._dets
            if key[0] == receiver and key[1] < before_rsn
        ]
        for key in victims:
            del self._dets[key]
            del self._masks[key]
        self.entries_pruned += len(victims)
        return len(victims)

    def clear(self) -> None:
        self._dets.clear()
        self._masks.clear()

    def to_state(self) -> List[Tuple[Tuple[int, int, int, int], int]]:
        return [
            (tuple(det), self._masks[key])
            for key, det in sorted(self._dets.items())
        ]

    def load_state(self, state: List[Tuple[Tuple[int, int, int, int], int]]) -> None:
        self.clear()
        for item, mask in state:
            self.merge(Determinant(*item), mask)

    def __len__(self) -> int:
        return len(self._dets)


_DSTS = 3
_send_ops = st.lists(
    st.tuples(
        st.sampled_from(["log", "log", "log", "log", "prune", "clear", "reload"]),
        st.integers(min_value=0, max_value=_DSTS - 1),
        st.integers(min_value=-1, max_value=40),
        st.integers(min_value=0, max_value=200),  # body size
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=_send_ops)
def test_row_send_log_matches_the_dict_reference(ops):
    """Any sequence of logs -- in order, with gaps, duplicates, and below
    a pruned prefix -- prunes, crashes and checkpoint round trips leaves
    the ssn rows and the dict-based log with the same answers: every
    ``prune_upto`` return, ``messages_for`` (payloads equal, the rows'
    each a fresh decode), ``to_state``, ``len`` and the byte and entry
    counters."""
    rows, reference = SendLog(), DictSendLog()
    next_ssn = [0] * _DSTS
    for op, dst, ssn, size in ops:
        if op == "log":
            if ssn < 0:  # the channel's next send
                ssn = next_ssn[dst]
            next_ssn[dst] = max(next_ssn[dst], ssn + 1)
            payload = {"dst": dst, "ssn": ssn}
            rows.log(dst, ssn, payload, size)
            reference.log(dst, ssn, payload, size)
        elif op == "prune":
            assert rows.prune_upto(dst, ssn) == reference.prune_upto(dst, ssn)
        elif op == "clear":
            rows.clear()
            reference.clear()
        else:
            rows.load_state(rows.to_state())
            reference.load_state(reference.to_state())
        for dst in range(_DSTS):
            new, old = rows.messages_for(dst), reference.messages_for(dst)
            assert new == old
            assert not any(a[1][0] is b[1][0] for a, b in zip(new, old))
        assert rows.to_state() == reference.to_state()
        assert len(rows) == len(reference)
        assert (rows.bytes_logged, rows.bytes_pruned, rows.entries_pruned) == (
            reference.bytes_logged, reference.bytes_pruned, reference.entries_pruned)


_RECEIVERS, _RSNS = 4, 12


def _slot_det(receiver: int, rsn: int, message: int) -> Determinant:
    """The determinant of delivery ``(receiver, rsn)``: ``message`` 0 or
    1 names one of two different messages that may claim the slot."""
    return Determinant(receiver + 1 + message, rsn + 100 * message, receiver, rsn)


_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=_RECEIVERS - 1),
        st.integers(min_value=0, max_value=_RSNS - 1),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2 ** 7 - 1),  # mask
    ),
    min_size=1, max_size=6,
)
_det_log_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["merge", "add", "note", "absorb", "absorb", "absorb", "spread", "spread",
             "drop", "clear", "reload"]
        ),
        _entries,
        st.lists(st.integers(min_value=-1, max_value=5), max_size=3),  # hosts
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_det_log_ops, f=st.integers(min_value=1, max_value=4),
       me=st.integers(min_value=0, max_value=_RECEIVERS - 1))
def test_row_determinant_log_matches_the_dict_reference(ops, f, me):
    """Any sequence of merges, adds, piggyback absorbs and spreads (each
    with its own unstable cache), prefix drops with re-entries below the
    pruned base, crashes and checkpoint round trips -- holes, out-of-order
    arrivals and a second determinant for a filled slot included -- gets
    the same answer from the rsn rows as from the dict-based log: every
    return value, the caches and ``on_stable`` calls, ``determinants()``,
    ``for_receiver``, ``mask`` and ``in`` for every slot and message,
    ``to_state``, ``len`` and ``entries_pruned``."""
    rows, reference = DeterminantLog(), DictDeterminantLog()
    rows.f = reference.f = f
    caches: Tuple[Dict, Dict] = ({}, {})
    calls: Tuple[List, List] = ([], [])
    logs = (rows, reference)

    def on_stable(side):
        return lambda det, was_cached: calls[side].append((det, was_cached))

    for op, entries, hosts in ops:
        receiver, rsn, message, mask = entries[0]
        d = _slot_det(receiver, rsn, message)
        if op == "merge":
            assert rows.merge(d, mask) == reference.merge(d, mask)
        elif op == "add":
            assert rows.add(d, hosts) == reference.add(d, hosts)
        elif op == "note":
            host = hosts[0] if hosts else receiver
            assert rows.note_logged_at(d, host) == reference.note_logged_at(d, host)
        elif op == "absorb":
            slot_dets = [(_slot_det(r, s, m), k) for r, s, m, k in entries]
            items = [(det.delivery_id, det, k) for det, k in slot_dets]
            for side, log in enumerate(logs):
                log.absorb(items, hosts, caches[side], me, on_stable(side))
        elif op == "spread":
            dst = hosts[0] % _RECEIVERS if hosts else receiver
            assert rows.spread(dst, caches[0], me, on_stable(0)) == reference.spread(
                dst, caches[1], me, on_stable(1))
        elif op == "drop":
            assert rows.drop_receiver_prefix(receiver, rsn) == (
                reference.drop_receiver_prefix(receiver, rsn))
            for cache in caches:  # what the protocols do with their caches
                for key in [k for k in cache if k[0] == receiver and k[1] < rsn]:
                    del cache[key]
        elif op == "clear":
            for log, cache in zip(logs, caches):
                log.clear()
                cache.clear()
        else:
            for log in logs:
                log.load_state(log.to_state())
        assert caches[0] == caches[1]
        assert calls[0] == calls[1]
        assert rows.to_state() == reference.to_state()
        assert len(rows) == len(reference)
        assert rows.entries_pruned == reference.entries_pruned
    assert rows.determinants() == reference.determinants()
    for receiver in range(_RECEIVERS + 1):
        assert rows.for_receiver(receiver) == reference.for_receiver(receiver)
        for rsn in range(_RSNS + 1):
            for message in (0, 1):
                d = _slot_det(receiver, rsn, message)
                assert rows.mask(d) == reference.mask(d)
                assert (d in rows) == (d in reference)
