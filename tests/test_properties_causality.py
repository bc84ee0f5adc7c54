"""Property-based tests on the causality substrate."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causality.dependency import make_depinfo
from repro.causality.determinant import Determinant
from repro.causality.vector_clock import VectorClock
from repro.sanitizer.causal import CausalGraph


# -- vector clocks -------------------------------------------------------
clock_dicts = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=50),
    max_size=6,
)


@given(clock_dicts, clock_dicts)
def test_merge_is_least_upper_bound(a_dict, b_dict):
    a, b = VectorClock(a_dict), VectorClock(b_dict)
    merged = a.copy().merge(b)
    assert a <= merged
    assert b <= merged
    # no smaller clock dominates both
    for pid in merged.clocks:
        assert merged.get(pid) == max(a.get(pid), b.get(pid))


@given(clock_dicts, clock_dicts)
def test_merge_commutative(a_dict, b_dict):
    a, b = VectorClock(a_dict), VectorClock(b_dict)
    assert a.copy().merge(b) == b.copy().merge(a)


@given(clock_dicts)
def test_order_reflexive_on_copies(a_dict):
    a = VectorClock(a_dict)
    assert a <= a.copy()
    assert not a < a.copy()


@given(clock_dicts, clock_dicts, clock_dicts)
def test_order_transitive(a_dict, b_dict, c_dict):
    a, b, c = VectorClock(a_dict), VectorClock(b_dict), VectorClock(c_dict)
    if a <= b and b <= c:
        assert a <= c


@given(clock_dicts, clock_dicts)
def test_trichotomy_of_relations(a_dict, b_dict):
    """Exactly one of: a<b, b<a, a==b, a||b."""
    a, b = VectorClock(a_dict), VectorClock(b_dict)
    relations = [a < b, b < a, a == b, a.concurrent(b)]
    assert sum(relations) == 1


@given(clock_dicts)
def test_tick_strictly_advances(a_dict):
    a = VectorClock(a_dict)
    before = a.copy()
    a.tick(3)
    assert before < a


# -- determinants and depinfo stores --------------------------------------
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


@settings(max_examples=50)
@given(
    st.lists(determinants, max_size=30),
    st.sampled_from(["vector", "matrix", "graph"]),
)
def test_depinfo_stores_agree(dets, kind):
    """All three representations must expose identical determinant sets
    (the recovery algorithm is representation-agnostic)."""
    store = make_depinfo(kind)
    reference = make_depinfo("vector")
    store.merge(dets)
    reference.merge(dets)
    assert store.to_wire() == reference.to_wire()
    for receiver in {d.receiver for d in dets}:
        assert set(store.for_receiver(receiver)) == set(reference.for_receiver(receiver))
        assert store.max_rsn(receiver) == reference.max_rsn(receiver)


@settings(max_examples=50)
@given(st.lists(determinants, max_size=30), st.sampled_from(["vector", "matrix", "graph"]))
def test_depinfo_merge_idempotent(dets, kind):
    store = make_depinfo(kind)
    store.merge(dets)
    once = store.to_wire()
    store.merge(dets)
    assert store.to_wire() == once


@settings(max_examples=50)
@given(
    st.lists(determinants, max_size=20),
    st.lists(determinants, max_size=20),
    st.sampled_from(["vector", "matrix", "graph"]),
)
def test_depinfo_wire_union(a, b, kind):
    """Merging wires is set union over delivery slots."""
    left = make_depinfo(kind)
    left.merge(a)
    right = make_depinfo(kind)
    right.merge(b)
    combined = make_depinfo(kind)
    combined.load_wire(left.to_wire())
    combined.load_wire(right.to_wire())
    slots = {d.delivery_id for d in combined.determinants()}
    expected = {d.delivery_id for d in left.determinants()} | {
        d.delivery_id for d in right.determinants()
    }
    assert slots == expected


# -- the causal graph's backward closure ----------------------------------
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
    """One walk from the whole frontier reaches exactly what the old
    per-event walks reached together -- also through archived
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
            graph.record_delivery(b, delivered[b], a, ssn)
            delivered[b] += 1
    frontier = [(node, count - 1) for node, count in enumerate(delivered) if count]
    frontier += [(node % n, rsn) for node, rsn in roots]
    expected = set()
    for event in frontier:
        expected |= _reference_antecedents(graph, event)
        assert graph.antecedents(event) == _reference_antecedents(graph, event)
    assert graph.closure(frontier) == expected
