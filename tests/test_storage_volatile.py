"""Unit tests for volatile logs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.determinant import Determinant
from repro.storage.volatile import DeterminantLog, SendLog, VolatileLog, host_mask

from helpers import send_log_lookup, unstable


def det(sender=0, ssn=0, receiver=1, rsn=0):
    return Determinant(sender=sender, ssn=ssn, receiver=receiver, rsn=rsn)


class TestVolatileLog:
    def test_append_and_iterate(self):
        log = VolatileLog()
        log.append("a")
        log.append("b")
        assert list(log) == ["a", "b"]
        assert len(log) == 2

    def test_clear_loses_everything(self):
        log = VolatileLog()
        log.append(1)
        log.clear()
        assert len(log) == 0

    def test_entries_returns_copy(self):
        log = VolatileLog()
        log.append(1)
        snapshot = log.entries()
        snapshot.append(2)
        assert len(log) == 1


class TestSendLog:
    def test_log_and_lookup(self):
        log = SendLog()
        log.log(2, 0, {"x": 1}, 128)
        payload, size = send_log_lookup(log, 2, 0)
        assert payload == {"x": 1}
        assert size == 128
        assert send_log_lookup(log, 2, 1) is None

    def test_payload_kept_by_reference(self):
        """Nothing mutates a sent payload, so the log holds no copy."""
        log, payload = SendLog(), {"x": 1}
        log.log(2, 0, payload, 128)
        assert send_log_lookup(log, 2, 0)[0] is payload
        assert log.messages_for(2) == [(0, (payload, 128))]

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
    ),
    max_size=50,
)


@settings(max_examples=80)
@given(ops=_log_ops, target=st.integers(min_value=1, max_value=5))
def test_determinant_log_host_masks_match_a_set_model(ops, target):
    """The bitmask host sets against the ``Dict[key, set]`` they replaced."""
    log = DeterminantLog()
    model = {}
    for op, receiver, rsn, hosts in ops:
        d = det(receiver=receiver, rsn=rsn, ssn=rsn)
        known = model.get(d.delivery_id)
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
        model[d.delivery_id] = merged
        assert log.mask(d) == host_mask(merged)
    assert len(log) == len(model)
    for d in log.determinants():
        assert log.logged_at(d) == frozenset(model[d.delivery_id])
    log.f = target - 1
    assert unstable(log) == sorted(
        d for d in log.determinants()
        if len(model[d.delivery_id]) < target and -1 not in model[d.delivery_id]
    )
    assert log.logged_at(det(receiver=9)) == frozenset()
    restored = DeterminantLog()
    restored.load_state(log.to_state())
    assert restored.to_state() == log.to_state()
    for d in log.determinants():
        assert restored.logged_at(d) == log.logged_at(d)
