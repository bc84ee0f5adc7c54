"""A checkpoint is an immutable image, and the store makes the only copy.

``tests/test_storage_checkpoint.py`` pins the isolation guarantee at the
store's API; this file holds it through the real path -- capture,
durability, crash, restore, replay -- on every stack of the chaos
matrix, and pins the encoder's contract (types preserved, plain data
only).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_system
from repro.procs.failure import crash_at, crash_on
from repro.sim.kernel import Simulator
from repro.storage.checkpoint import CheckpointStore, decode_image, encode_image
from repro.storage.stable import StableStorage

from helpers import small_config
from test_chaos import COMBOS, chaos_config, check_invariants

STACKS = pytest.mark.parametrize(
    "protocol,recovery,max_crashes", COMBOS, ids=[f"{p}-{r}" for p, r, _ in COMBOS]
)


def _mutable_ids(value, found=None):
    """``id`` of every mutable container reachable from ``value``."""
    found = set() if found is None else found
    if isinstance(value, (list, dict, set)):
        found.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            _mutable_ids(key, found)
            _mutable_ids(item, found)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _mutable_ids(item, found)
    return found


def _scramble(value):
    """Empty every mutable container reachable from ``value``, leaves first."""
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        return
    for child in children:
        _scramble(child)
    if isinstance(value, (list, dict, set)):
        value.clear()


def _assert_decodes_never_alias(image):
    first, second, reference = (decode_image(image) for _ in range(3))
    assert first == second == reference
    assert not _mutable_ids(first) & _mutable_ids(second)
    _scramble(first)
    assert second == reference


# ----------------------------------------------------------------------
# through the real path, on every stack of the chaos matrix
# ----------------------------------------------------------------------
@STACKS
def test_durable_lines_never_change_and_never_alias(protocol, recovery, max_crashes):
    """Under loss, duplication, partitions, storage faults and crashes:
    (i) a durable checkpoint reads back at the end of the run exactly as
    it did the moment it became durable, whatever the process -- and the
    restores that adopted its decoded state -- did in between; (ii) two
    loads of one line are equal and share no mutable container."""
    durable = []  # (checkpoint, a true copy of its image, its decoded state)
    restored_lines = 0
    configs = (chaos_config(protocol, recovery, max_crashes, seed) for seed in range(99))
    for config in [c for c in configs if c.crashes][:3]:
        config = dataclasses.replace(config, checkpoint_every=5)
        system = build_system(config)
        for node in system.nodes:
            def on_checkpoint(ckpt, _inner=node.protocol.on_checkpoint):
                durable.append((ckpt, bytes(bytearray(ckpt.image)), ckpt.load()))
                _inner(ckpt)

            node.protocol.on_checkpoint = on_checkpoint
        result = system.run()
        assert not check_invariants(config, result)
        restored_lines += result.extra["trace_counters"].get("node.restored", 0)
        if protocol == "coordinated":
            # its recovery lines are the round images: same encoder
            for node in system.nodes:
                for round_id in node.protocol._written_rounds:
                    _assert_decodes_never_alias(node.storage.peek(f"round:{round_id}"))
    assert restored_lines, "no trial restored a line: the matrix lost its crashes"
    assert any(ckpt.checkpoint_id > 1 for ckpt, _, _ in durable) or protocol == "coordinated"
    for ckpt, image_then, state_then in durable:
        assert ckpt.image == image_then
        assert ckpt.load() == state_then
        _assert_decodes_never_alias(ckpt.image)


@STACKS
def test_two_crashes_on_one_line_replay_the_same_digest_chain(
    protocol, recovery, max_crashes
):
    """(iii) The victim dies again the instant its first recovery
    completes -- before any newer line is durable -- so both restarts
    load the same line.  The first restart adopted that line's decoded
    state and replayed on top of it; the second must find the line as
    the first did, and (message logging replays deterministically)
    rebuild the same digest chain from it."""
    victim = 1
    coordinated = protocol == "coordinated"
    config = small_config(
        n=4, protocol=protocol, recovery=recovery,
        protocol_params=chaos_config(protocol, recovery, max_crashes, 0).protocol_params,
        hops=40, checkpoint_every=3,
        crashes=[
            crash_at(victim, 0.4),
            crash_on(victim, "node", "recovered", match_node=victim, immediate=True),
        ],
    )
    system = build_system(config)
    node = system.nodes[victim]
    loads = []   # (line id, delivered_count, digest) as each restart loaded it
    chains = {}  # incarnation -> {rsn: digest after that delivery}

    def on_load(event):
        if event.node == victim:
            line = event.details["round" if coordinated else "checkpoint_id"]
            loads.append((line, node.app.delivered_count, node.app.digest))

    def on_deliver(event):
        if event.node == victim:
            chains.setdefault(node.incarnation, {})[event.details["rsn"]] = node.app.digest

    # coordinated recovery's line is the committed round every node
    # rolls back to; a logging stack's is the victim's own checkpoint
    system.trace.subscribe(
        on_load, key="snapshot.rolled_back" if coordinated else "node.restored"
    )
    system.trace.subscribe(on_deliver, key="app.deliver")
    result = system.run()
    assert result.consistent and all(n.is_live for n in system.nodes)
    assert node.crash_count == 2
    first, second = loads
    assert first == second
    assert first[0] > (0 if coordinated else 1), "not a mid-run line"
    if not coordinated:  # re-execution after a rollback is not a replay
        replayed_twice = set(chains[1]) & set(chains[2])
        assert replayed_twice, "the second restart replayed nothing the first one did"
        assert all(chains[1][rsn] == chains[2][rsn] for rsn in replayed_twice)
        assert min(chains[1]) == min(chains[2]) == first[1]  # both start at the line


# ----------------------------------------------------------------------
# the encoder's contract
# ----------------------------------------------------------------------
_scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False)
)
_keys = st.integers() | st.text(max_size=8) | st.tuples(st.integers(), st.integers())
_plain = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_keys, inner, max_size=4)
        | st.sets(_keys, max_size=4)
    ),
    max_leaves=25,
)


def _typed(value):
    """``repr`` with every type spelled out (``==`` alone lets
    ``1 == True == 1.0``), independent of set and dict order."""
    name = type(value).__name__
    if isinstance(value, dict):
        items = sorted(f"{_typed(k)}: {_typed(v)}" for k, v in value.items())
    elif isinstance(value, (set, frozenset)):
        items = sorted(map(_typed, value))
    elif isinstance(value, (list, tuple)):
        items = map(_typed, value)
    else:
        return f"{name} {value!r}"
    return f"{name}({', '.join(items)})"


@settings(max_examples=200, deadline=None)
@given(value=_plain)
def test_image_round_trip_preserves_values_and_container_types(value):
    """(iv) Readers adopt decoded state without re-normalising it, so
    tuples must come back tuples, int keys ints, sets sets."""
    decoded = decode_image(encode_image(value, "a test value"))
    assert decoded == value
    assert _typed(decoded) == _typed(value)
    assert not _mutable_ids(decoded) & _mutable_ids(value)


def test_save_refuses_state_that_is_not_plain_data():
    """(v) A live object smuggled into a checkpoint fails at ``save`` --
    not at some later restore -- naming the node and the checkpoint."""
    store = CheckpointStore(StableStorage(Simulator(), owner=7), node=7)
    save = dict(
        delivered_count=0, app_state={}, send_seqnos={}, state_bytes=1, taken_at=0.0,
        bootstrap=True,
    )
    store.save(**save)
    with pytest.raises(TypeError, match="checkpoint 2 of node 7.*not plain data"):
        store.save(extra={"protocol": {"live": object()}}, **save)
    # the refused snapshot consumed no id and left the durable line alone
    assert store.latest.checkpoint_id == 1
    assert store.save(**save).checkpoint_id == 2


def test_the_store_makes_the_only_copy():
    """No layer a checkpoint passes through copies it again the slow
    way: ``copy.deepcopy`` is 20x the encoder on snapshot-shaped data
    (docs/PERFORMANCE.md §6) and was 27-30 % of a ``storage_logging``
    rep.  (``runner.py`` deep-copies configs, once per trial; it is not
    on this path.)"""
    import pathlib

    import repro

    package = pathlib.Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(package))
        for layer in ("storage", "core", "procs", "protocols")
        for path in sorted((package / layer).glob("*.py"))
        if "deepcopy" in path.read_text(encoding="utf-8")
    ]
    assert not offenders
