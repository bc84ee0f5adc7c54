"""Generator-level coverage for :mod:`repro.workloads.generators`.

Complements ``test_workloads.py`` (single-call purity) with the
properties the paper's replay argument leans on at run scale:

* **fixed-seed determinism** -- two fresh instances built with the same
  seed regenerate identical send *sequences* when walked through a
  whole hop chain, not just one call;
* **distribution shape** -- hash-based peer picks are spread over every
  peer (no self-sends, no starved destination) and the all-to-all
  thinning coin lands near its designed 1/(n-1) rate;
* **size accounting** -- every generated send carries the configured
  ``body_bytes`` (output reports excepted, which are fixed-size);
* **message-count parity** -- two full simulator runs from an identical
  config produce identical network message counts and state digests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.procs.process import OUTPUT_DST
from repro.workloads.generators import (
    _hash_int,
    AllToAllWorkload,
    ClientServerWorkload,
    PingPongWorkload,
    TokenRingWorkload,
    UniformWorkload,
    make_workload,
)

from .helpers import run_small

ALL_NAMES = ["token_ring", "uniform", "client_server", "ping_pong", "all_to_all"]


def _walk_chain(workload, n_nodes, steps=64):
    """Deterministically walk one causal chain through the workload.

    Starts from node 0's first initial send and keeps delivering the
    first resulting send, recording ``(dst, payload)`` at each hop.
    Returns the recorded trajectory; length is bounded by ``steps``.
    """
    trajectory = []
    sender, rsn = 0, 0
    pending = None
    for node in range(n_nodes):
        sends = workload.initial_sends(node, n_nodes)
        if sends:
            sender, pending = node, sends[0]
            break
    while pending is not None and len(trajectory) < steps:
        trajectory.append((pending.dst, dict(pending.payload)))
        nxt = workload.on_deliver(
            pending.dst, n_nodes, rsn, sender, pending.payload
        )
        nxt = [s for s in nxt if s.dst != OUTPUT_DST]
        sender = pending.dst
        pending = nxt[0] if nxt else None
        rsn += 1
    return trajectory


# ---------------------------------------------------------------------------
# fixed-seed determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_fresh_instances_same_seed_walk_identically(name):
    a = make_workload(name, seed=7)
    b = make_workload(name, seed=7)
    walk_a = _walk_chain(a, n_nodes=6)
    walk_b = _walk_chain(b, n_nodes=6)
    assert walk_a == walk_b
    assert walk_a, "walk must make progress"


def test_uniform_seed_changes_peer_stream():
    # hash-based routing must actually depend on the seed, otherwise
    # "seed" sweeps in the experiments are no-ops
    walks = {
        seed: _walk_chain(UniformWorkload(hops=40, seed=seed), n_nodes=8)
        for seed in range(6)
    }
    distinct = {tuple((dst, p["hops"]) for dst, p in walk) for walk in walks.values()}
    assert len(distinct) > 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_initial_sends_identical_across_instances(name):
    a = make_workload(name, seed=3)
    b = make_workload(name, seed=3)
    for node in range(8):
        assert a.initial_sends(node, 8) == b.initial_sends(node, 8)


# ---------------------------------------------------------------------------
# distribution shape
# ---------------------------------------------------------------------------

def test_uniform_peer_picks_cover_all_peers():
    n = 8
    w = UniformWorkload(hops=4, seed=0)
    counts = {dst: 0 for dst in range(n) if dst != 3}
    draws = 600
    for i in range(draws):
        sends = w.on_deliver(3, n, i, i % n, {"chain": f"c{i}", "hops": 4})
        forwarded = [s for s in sends if s.dst != OUTPUT_DST]
        assert len(forwarded) == 1
        assert forwarded[0].dst != 3
        counts[forwarded[0].dst] += 1
    expected = draws / (n - 1)
    for dst, count in counts.items():
        # loose 3-sigma-ish band: uniform hashing should not starve or
        # flood any single peer
        assert 0.5 * expected < count < 1.5 * expected, (dst, count)


def test_all_to_all_thinning_rate_near_design():
    n = 6
    w = AllToAllWorkload(hops=4, seed=0)
    draws = 800
    bursts = 0
    for i in range(draws):
        sends = w.on_deliver(
            i % n, n, i, (i + 1) % n, {"origin": (i + 1) % n, "hops": 3}
        )
        assert len(sends) in (0, n - 1)
        if sends:
            bursts += 1
    rate = bursts / draws
    design = 1 / (n - 1)
    assert 0.5 * design < rate < 2.0 * design


@pytest.mark.parametrize("name", ALL_NAMES)
def test_body_bytes_propagates_to_every_send(name):
    w = make_workload(name, body_bytes=999)
    payloads = {
        "token_ring": {"token": 0, "hops": 3},
        "uniform": {"chain": "0.0", "hops": 3},
        "client_server": {"op": "request", "client": 1, "remaining": 3},
        "ping_pong": {"hops": 3},
        "all_to_all": {"origin": 0, "hops": 3},
    }
    sends = []
    for node in range(6):
        sends.extend(w.initial_sends(node, 6))
    # client_server: deliver at the server so a reply is generated
    sends.extend(w.on_deliver(0, 6, 0, 1, payloads[name]))
    app_sends = [s for s in sends if s.dst != OUTPUT_DST]
    assert app_sends
    assert all(s.body_bytes == 999 for s in app_sends)


def test_uniform_output_every_emits_fixed_size_reports():
    w = UniformWorkload(hops=4, output_every=2, seed=0)
    reports = []
    for rsn in range(10):
        sends = w.on_deliver(1, 6, rsn, 0, {"chain": "c", "hops": 3})
        reports.extend(s for s in sends if s.dst == OUTPUT_DST)
    assert len(reports) == 5  # every second delivery
    assert all(r.body_bytes == 32 for r in reports)


def test_client_server_bounded_request_count():
    w = ClientServerWorkload(requests=3, server=0)
    exchanges = 0
    payload = w.initial_sends(1, 4)[0].payload
    while True:
        reply = w.on_deliver(0, 4, exchanges, 1, payload)
        reply = [s for s in reply if s.dst != OUTPUT_DST]
        exchanges += 1
        nxt = w.on_deliver(1, 4, exchanges, 0, reply[0].payload)
        if not nxt:
            break
        payload = nxt[0].payload
        assert exchanges < 10, "client/server loop failed to terminate"
    assert exchanges == 3


def test_token_ring_chain_length_matches_hops():
    w = TokenRingWorkload(hops=12, tokens=1)
    walk = _walk_chain(w, n_nodes=5, steps=100)
    # initial send + `hops` forwards
    assert len(walk) == 13
    assert walk[-1][1]["hops"] == 0


def test_ping_pong_alternates_between_partners():
    w = PingPongWorkload(hops=6)
    walk = _walk_chain(w, n_nodes=4, steps=100)
    assert len(walk) == 7
    assert [dst for dst, _ in walk] == [1, 0, 1, 0, 1, 0, 1]


# ---------------------------------------------------------------------------
# message-count parity across identical full runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "workload,params",
    [
        ("uniform", {"hops": 16, "fanout": 2}),
        ("token_ring", {"hops": 16}),
        ("client_server", {"requests": 4}),
        ("all_to_all", {"hops": 6}),
    ],
)
def test_identical_runs_have_identical_message_counts(workload, params):
    a = run_small(workload=workload, workload_params=dict(params), seed=11)
    b = run_small(workload=workload, workload_params=dict(params), seed=11)
    assert a.network.messages == b.network.messages
    assert sum(a.network.messages.values()) > 0
    assert a.digests == b.digests
    assert a.end_time == b.end_time


def test_different_seed_changes_timing_but_stays_consistent():
    a = run_small(workload="uniform", seed=1)
    b = run_small(workload="uniform", seed=2)
    assert a.consistent and b.consistent
    # different network-jitter streams: the runs are distinct objects
    assert (a.end_time, sum(a.network.messages.values())) != (
        b.end_time,
        sum(b.network.messages.values()),
    ) or a.digests != b.digests


# ----------------------------------------------------------------------
# the flattened forward step against the reference hash
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(
    seed=st.integers(min_value=-5, max_value=2**40),
    n=st.integers(min_value=2, max_value=40),
    node=st.integers(min_value=0, max_value=39),
    chain=st.one_of(st.text(max_size=8), st.integers(), st.none()),
    hops=st.integers(min_value=1, max_value=10**6),
    sender=st.integers(min_value=0, max_value=39),
    rsn=st.integers(min_value=0, max_value=100),
)
def test_uniform_forward_matches_the_reference_hash(seed, n, node, chain, hops, sender, rsn):
    """``UniformWorkload.on_deliver`` builds its hashed text in place;
    ``_hash_int`` (still what every other workload calls) is the
    reference for which peer that text must pick."""
    node %= n
    workload = UniformWorkload(hops=hops, seed=seed, body_bytes=77)
    payload = {"hops": hops} if chain is None else {"chain": chain, "hops": hops}
    (send,) = workload.on_deliver(node, n, rsn, sender, payload)
    label = "?" if chain is None else chain
    expected = (
        node + 1 + _hash_int(seed, node, "fwd", label, hops, sender) % (n - 1)
    ) % n
    assert send == (expected, {"chain": label, "hops": hops - 1}, 77)
    assert send.dst == workload._pick_peer(node, n, "fwd", label, hops, sender) != node
