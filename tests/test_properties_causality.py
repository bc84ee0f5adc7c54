"""Property-based tests on the causality substrate."""

import pickle
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.determinant import Determinant
from repro.sanitizer.causal import CausalGraph, slot


# -- determinants ---------------------------------------------------------
determinants = st.builds(
    lambda sender, ssn, recv_off, rsn: Determinant(
        sender=sender, ssn=ssn, receiver=(sender + 1 + recv_off) % 10, rsn=rsn
    ),
    sender=st.integers(min_value=0, max_value=9),
    ssn=st.integers(min_value=0, max_value=40),
    recv_off=st.integers(min_value=0, max_value=8),
    rsn=st.integers(min_value=0, max_value=40),
)


@given(st.lists(determinants, max_size=40))
def test_determinant_round_trip_lists(dets):
    assert [Determinant.from_tuple(d.to_tuple()) for d in dets] == dets


@given(st.lists(determinants, max_size=40))
def test_determinant_behaves_like_its_tuple(dets):
    """The tuple type keeps the frozen dataclass's semantics: field-order
    sorting, and equality/hash parity for set and dict use."""
    tuples = [d.to_tuple() for d in dets]
    assert all(type(t) is tuple for t in tuples)
    assert [d.to_tuple() for d in sorted(dets)] == sorted(tuples)
    assert len(set(dets)) == len(set(tuples))
    index = {d: i for i, d in enumerate(dets)}
    for d in dets:
        twin = Determinant.from_tuple(d.to_tuple())
        assert twin == d and hash(twin) == hash(d)
        assert index[twin] == index[d]
        assert pickle.loads(pickle.dumps(d)) == d
        assert (d.sender, d.ssn, d.receiver, d.rsn) == d.to_tuple()


# -- the causal graph: rows against the dict-based reference ---------------
DeliveryKey = Tuple[int, int]
SendKey = Tuple[int, int, int]


class DictCausalGraph:
    """The dict-based causal record the row-based :class:`CausalGraph`
    replaced, kept verbatim as its reference.

    The causal record of one run: sends, deliveries, and rollbacks.

    Pure bookkeeping -- recording methods report what was already there
    (so callers can flag divergence) but never judge.  All state is plain
    dicts of tuples, picklable and cheap to copy.
    """

    def __init__(self) -> None:
        #: (sender, ssn, dst) -> deliveries the sender had made at send time
        self.send_context: Dict[SendKey, int] = {}
        #: (receiver, rsn) -> (sender, ssn)
        self.delivery: Dict[DeliveryKey, Tuple[int, int]] = {}
        #: archives of permanently rolled-back events (bounded by prune())
        self.rolled_back_delivery: Dict[DeliveryKey, Tuple[int, int]] = {}
        self.rolled_back_sends: Dict[SendKey, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_send(
        self, sender: int, ssn: int, dst: int, deliveries_so_far: int
    ) -> Optional[int]:
        """Record a send; returns the previously recorded live context if
        this (sender, ssn, dst) was already recorded, else ``None``."""
        key = (sender, ssn, dst)
        previous = self.send_context.get(key)
        if previous is None:
            self.send_context[key] = deliveries_so_far
        return previous

    def record_delivery(
        self, receiver: int, rsn: int, sender: int, ssn: int
    ) -> Optional[Tuple[int, int]]:
        """Record a delivery; returns the previously recorded live
        ``(sender, ssn)`` for this slot if any, else ``None``."""
        key = (receiver, rsn)
        previous = self.delivery.get(key)
        if previous is None:
            self.delivery[key] = (sender, ssn)
        return previous

    def roll_back(self, node: int, final_count: int) -> List[DeliveryKey]:
        """Archive ``node``'s deliveries at rsn >= ``final_count`` and the
        sends they caused; returns the archived delivery keys."""
        stale_deliveries = [
            key for key in self.delivery if key[0] == node and key[1] >= final_count
        ]
        for key in stale_deliveries:
            self.rolled_back_delivery[key] = self.delivery.pop(key)
        stale_sends = [
            key
            for key, context in self.send_context.items()
            if key[0] == node and context > final_count
        ]
        for key in stale_sends:
            self.rolled_back_sends[key] = self.send_context.pop(key)
        return stale_deliveries

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def delivery_at(self, receiver: int, rsn: int) -> Optional[Tuple[int, int]]:
        """The (sender, ssn) delivered at this slot, live or archived."""
        found = self.delivery.get((receiver, rsn))
        if found is None:
            found = self.rolled_back_delivery.get((receiver, rsn))
        return found

    def context_of(self, sender: int, ssn: int, dst: int) -> Optional[int]:
        """The causal context of a send, live or archived."""
        context = self.send_context.get((sender, ssn, dst))
        if context is None:
            context = self.rolled_back_sends.get((sender, ssn, dst))
        return context

    def send_is_rolled_back(self, sender: int, ssn: int, dst: int) -> bool:
        """Whether this send exists only in rolled-back (orphan) form."""
        key = (sender, ssn, dst)
        return key in self.rolled_back_sends and key not in self.send_context

    def antecedents(self, event: DeliveryKey) -> Set[DeliveryKey]:
        """Backward closure of one delivery event in the happens-before DAG."""
        return self.closure((event,))

    def closure(self, events: Iterable[DeliveryKey]) -> Set[DeliveryKey]:
        """Backward closure of a set of delivery events: one walk, each
        reachable event visited once however many roots reach it."""
        seen: Set[DeliveryKey] = set()
        stack = list(events)
        while stack:
            node, rsn = stack.pop()
            if (node, rsn) in seen or rsn < 0:
                continue
            seen.add((node, rsn))
            if rsn > 0:
                stack.append((node, rsn - 1))
            delivered = self.delivery_at(node, rsn)
            if delivered is not None:
                sender, ssn = delivered
                context = self.context_of(sender, ssn, node)
                if context is not None and context > 0:
                    stack.append((sender, context - 1))
        return seen

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def prune(self, node: int, covered: int) -> int:
        """Drop archived entries of ``node`` below the GC horizon.

        Called when a durable checkpoint covers ``covered`` deliveries.
        An archived rolled-back delivery at rsn < ``covered`` is shadowed
        by the live replay re-record of the same slot (lookups prefer the
        live entry), and an archived send with context <= ``covered``
        points at a delivery that is now below the checkpoint and can
        never become an orphan -- so neither can contribute to a future
        violation.  Returns the number of entries dropped.
        """
        stale_deliveries = [
            key
            for key in self.rolled_back_delivery
            if key[0] == node and key[1] < covered
        ]
        for key in stale_deliveries:
            del self.rolled_back_delivery[key]
        stale_sends = [
            key
            for key, context in self.rolled_back_sends.items()
            if key[0] == node and context <= covered
        ]
        for key in stale_sends:
            del self.rolled_back_sends[key]
        return len(stale_deliveries) + len(stale_sends)

    def archived_entries(self) -> int:
        """Total rolled-back entries still held (tests/assertions)."""
        return len(self.rolled_back_delivery) + len(self.rolled_back_sends)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CausalGraph(deliveries={len(self.delivery)}, "
            f"sends={len(self.send_context)}, archived={self.archived_entries()})"
        )


def _expand(reach):
    """A ``node -> highest rsn`` reach map as the event set it stands for."""
    return {(node, rsn) for node, top in reach.items() for rsn in range(top + 1)}


def _reference_antecedents(graph, event):
    """The per-event walk ``check_safety`` used to run once per frontier
    event, kept here as the reference for the one-walk closure."""
    seen = set()
    stack = [event]
    while stack:
        node, rsn = stack.pop()
        if (node, rsn) in seen or rsn < 0:
            continue
        seen.add((node, rsn))
        if rsn > 0:
            stack.append((node, rsn - 1))
        delivered = graph.delivery_at(node, rsn)
        if delivered is not None:
            sender, ssn = delivered
            context = graph.context_of(sender, ssn, node)
            if context is not None and context > 0:
                stack.append((sender, context - 1))
    return seen


@settings(max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=5),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["msg", "msg", "msg", "rollback"]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=60,
    ),
    roots=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 20)), max_size=6
    ),
)
def test_closure_from_a_frontier_is_the_union_of_per_event_walks(n, steps, roots):
    """One reach walk from the whole frontier reaches exactly what the
    old per-event walks reached together -- also through archived
    (rolled-back) deliveries and sends."""
    graph = CausalGraph()
    delivered = [0] * n
    next_ssn = {}
    for kind, a, b in steps:
        a, b = a % n, b % n
        if kind == "rollback":
            delivered[a] = min(delivered[a], b)
            graph.roll_back(a, delivered[a])
        elif a != b:
            ssn = next_ssn.get((a, b), 0)
            next_ssn[(a, b)] = ssn + 1
            graph.record_send(a, ssn, b, delivered[a])
            graph.record_delivery(b, delivered[b], (a, ssn))
            delivered[b] += 1
    frontier = [(node, count - 1) for node, count in enumerate(delivered) if count]
    frontier += [(node % n, rsn) for node, rsn in roots]
    expected = set()
    for event in frontier:
        expected |= _reference_antecedents(graph, event)
        assert _expand(graph.reach([event])) == _reference_antecedents(graph, event)
    assert _expand(graph.reach(frontier)) == expected


_N = 4
_graph_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["send", "send", "deliver", "deliver", "deliver", "rerecord",
             "resend", "rollback", "prune"]
        ),
        st.integers(min_value=0, max_value=_N - 1),
        st.integers(min_value=0, max_value=_N - 1),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=20, max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=_graph_ops, seed=st.integers(min_value=0, max_value=2 ** 32))
def test_row_causal_graph_matches_the_dict_reference(ops, seed):
    """Any sequence of sends, deliveries, replay re-records (same or a
    different message, same or a different context), rollbacks and
    prunes -- gaps included -- gets the same answer from the per-node
    rows as from the dict-based graph they replaced: every ``record_*``
    return, ``roll_back`` and ``prune``, ``delivery_at``, ``context_of``,
    ``send_is_rolled_back`` and the closure from random frontiers."""
    rows, reference = CausalGraph(), DictCausalGraph()
    delivered = [0] * _N
    next_ssn = {}
    for op, a, b, k in ops:
        if op in ("send", "resend") and a != b:
            ssn = next_ssn.get((a, b), 0)
            if op == "resend":
                ssn = k % (ssn + 2)  # a regeneration, or a gap ahead
            else:
                next_ssn[(a, b)] = ssn + 1
            context = delivered[a] if k % 3 else k
            assert rows.record_send(a, ssn, b, context) == reference.record_send(
                a, ssn, b, context)
        elif op in ("deliver", "rerecord") and a != b:
            rsn = delivered[b] if op == "deliver" else k % (delivered[b] + 2)
            # deliver one of the channel's sends (or, re-recording, any ssn)
            ssn = k if op == "rerecord" else k % max(1, next_ssn.get((a, b), 0))
            assert rows.record_delivery(b, rsn, (a, ssn)) == reference.record_delivery(
                b, rsn, a, ssn)
            delivered[b] = max(delivered[b], rsn + 1)
        elif op == "rollback":
            delivered[a] = min(delivered[a], k)
            assert sorted(rows.roll_back(a, delivered[a])) == sorted(
                reference.roll_back(a, delivered[a]))
        elif op == "prune":
            assert rows.prune(a, k) == reference.prune(a, k)
        assert rows.archived_entries() == reference.archived_entries()
    for node in range(_N):
        for index in range(max(delivered) + 3):
            assert rows.delivery_at(node, index) == reference.delivery_at(node, index)
            assert slot(rows.deliveries, node, index) == reference.delivery.get((node, index))
            for dst in range(_N):
                assert rows.context_of(node, index, dst) == reference.context_of(
                    node, index, dst)
                assert rows.send_is_rolled_back(
                    node, index, dst) == reference.send_is_rolled_back(node, index, dst)
    # many frontiers per graph: a node raised after its first walk (the
    # resumed walk) needs two roots in a particular order to show
    rnd = random.Random(seed)
    for _ in range(60):
        frontier = [
            (rnd.randrange(_N), rnd.randint(-1, max(delivered) + 1))
            for _ in range(rnd.randint(1, 4))
        ]
        assert _expand(rows.reach(frontier)) == reference.closure(frontier)
