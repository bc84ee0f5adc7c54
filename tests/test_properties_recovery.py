"""Property-based tests: recovery correctness under random schedules.

For randomly generated workload parameters and crash schedules (within
the f-failure budget), every run must end with all processes live, the
oracle clean, and -- for FBL with both recovery algorithms -- identical
final digests to a failure-free execution wherever the comparison is
meaningful (Figure-1-style chains).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_system, crash_at, crash_on
from repro.storage.volatile import host_mask

from helpers import small_config


def fbl_config(n, f, recovery, seed, crashes, workload, hops):
    return small_config(
        n=n,
        f=f,
        recovery=recovery,
        seed=seed,
        workload=workload,
        workload_params={"hops": hops, "fanout": 2}
        if workload == "uniform"
        else {"hops": hops},
        crashes=crashes,
    )


schedules = st.builds(
    lambda victims, times: [
        crash_at(node=v, time=t) for v, t in zip(victims, sorted(times))
    ],
    victims=st.lists(
        st.integers(min_value=0, max_value=5), min_size=1, max_size=2, unique=True
    ),
    times=st.lists(
        st.floats(min_value=0.005, max_value=0.3), min_size=2, max_size=2
    ),
)


@settings(max_examples=25, deadline=None)
@given(
    schedule=schedules,
    seed=st.integers(min_value=0, max_value=10_000),
    recovery=st.sampled_from(["nonblocking", "blocking"]),
    workload=st.sampled_from(["uniform", "token_ring"]),
    hops=st.integers(min_value=5, max_value=40),
)
def test_fbl_recovery_is_always_consistent(schedule, seed, recovery, workload, hops):
    config = fbl_config(
        n=6, f=2, recovery=recovery, seed=seed,
        crashes=schedule, workload=workload, hops=hops,
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent, result.oracle_violations[:3]
    assert all(node.is_live for node in system.nodes)
    # every crash episode eventually completed
    open_episodes = [e for e in result.episodes if not e.complete]
    assert not open_episodes


@settings(max_examples=15, deadline=None)
@given(
    schedule=schedules,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_nonblocking_never_blocks_anyone(schedule, seed):
    config = fbl_config(
        n=6, f=2, recovery="nonblocking", seed=seed,
        crashes=schedule, workload="uniform", hops=20,
    )
    result = build_system(config).run()
    assert result.total_blocked_time == 0.0


@settings(max_examples=15, deadline=None)
@given(
    victim=st.integers(min_value=0, max_value=4),
    time=st.floats(min_value=0.005, max_value=0.2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pessimistic_single_crash_consistent(victim, time, seed):
    config = small_config(
        n=5, protocol="pessimistic", recovery="local", seed=seed,
        crashes=[crash_at(node=victim, time=time)],
        workload="uniform", workload_params={"hops": 15, "fanout": 2},
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent
    assert all(node.is_live for node in system.nodes)


@settings(max_examples=15, deadline=None)
@given(
    victim=st.integers(min_value=0, max_value=4),
    time=st.floats(min_value=0.005, max_value=0.2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_optimistic_single_crash_consistent(victim, time, seed):
    config = small_config(
        n=5, protocol="optimistic", recovery="optimistic", seed=seed,
        crashes=[crash_at(node=victim, time=time)],
        workload="uniform", workload_params={"hops": 15, "fanout": 2},
    )
    system = build_system(config)
    result = system.run()
    assert result.consistent, result.oracle_violations[:3]
    assert all(node.is_live for node in system.nodes)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    hops=st.integers(min_value=5, max_value=30),
)
def test_failure_free_digests_are_seed_stable(seed, hops):
    """Two identical systems produce identical executions."""
    def build():
        return build_system(fbl_config(
            n=5, f=2, recovery="nonblocking", seed=seed,
            crashes=[], workload="uniform", hops=hops,
        ))

    a, b = build().run(), build().run()
    assert a.digests == b.digests
    assert a.end_time == b.end_time


@settings(max_examples=10, deadline=None)
@given(
    victim=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_crashed_node_digest_matches_failure_free_prefix_chain(victim, seed):
    """For the causal-chain workload (token ring), the recovered system
    reaches exactly the failure-free final state: nothing visible is
    lost, because every message is an antecedent of the chain's tail."""
    def config(crashes):
        return small_config(
            n=5, f=2, recovery="nonblocking", seed=seed,
            workload="token_ring", workload_params={"hops": 30, "tokens": 1},
            crashes=crashes,
        )

    clean = build_system(config([]))
    clean_result = clean.run()
    crashed = build_system(config([crash_at(node=victim, time=0.002)]))
    crashed_result = crashed.run()
    assert crashed_result.consistent
    for node_id, digest in clean_result.digests.items():
        assert crashed_result.digests[node_id] == digest


def record_gathers(system):
    """Wrap every node's depinfo answer and replay start.  Returns the
    answers, as ``(time, host, want, the host's whole log as det ->
    mask)``, and the replay starts, as ``(time, node, the handed depinfo,
    the log the node held before merging it)``."""
    everyone = host_mask(range(system.config.n))
    answers, starts = [], []
    for node in system.nodes:
        protocol = node.protocol

        def local_depinfo_wire(want, node=node, wire=protocol.local_depinfo_wire):
            held = node.protocol.det_log.depinfo(everyone)
            answers.append((node.sim.now, node.node_id, want, dict(zip(*held))))
            return wire(want)

        def begin_replay(depinfo_wire, node=node, begin=protocol.begin_replay):
            before = set(node.protocol.det_log.determinants())
            starts.append((node.sim.now, node.node_id, depinfo_wire, before))
            begin(depinfo_wire)

        protocol.local_depinfo_wire = local_depinfo_wire
        protocol.begin_replay = begin_replay
    return answers, starts


@settings(max_examples=20, deadline=None)
@given(
    recovery=st.sampled_from(["nonblocking", "blocking"]),
    during_recovery=st.booleans(),
    victims=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2,
                     unique=True),
    time=st.floats(min_value=0.005, max_value=0.2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_a_recovered_process_gets_exactly_what_ties_to_the_recovering_set(
        recovery, during_recovery, victims, time, seed):
    """One crash, or a second victim dying as the first recovery's
    request reaches it.  At each replay start the recovering process r
    holds every determinant that the last answer of each host still up
    since, asked on r's behalf, tied to r (r received it, or the host's
    mask counted r as holding it); and nothing handed to it is tied to
    no process of the recovering set R, by receiver or gathered mask."""
    first, second = victims
    crashes = [crash_at(node=first, time=time)]
    if during_recovery:
        trigger = "depinfo_request" if recovery == "nonblocking" else "recovery_request"
        crashes.append(crash_on(second, "net", "deliver", match_node=second,
                                match_details={"mtype": trigger}, immediate=True))
    system = build_system(fbl_config(
        n=6, f=2, recovery=recovery, seed=seed, crashes=crashes,
        workload="uniform", hops=25,
    ))
    answers, starts = record_gathers(system)
    result = system.run()
    assert result.consistent, result.oracle_violations[:3]
    crashed = {}
    for event in system.trace.select("node", action="crash"):
        crashed.setdefault(event.node, []).append(event.time)
    recovering = host_mask(crashed)
    assert starts
    for start, r, (dets, masks), before in starts:
        for det, mask in zip(dets, masks):
            assert (mask | 2 << det.receiver) & recovering, det
        holds = before.union(dets)
        last = {}
        for at, host, want, held in answers:
            up_since = not any(at < t <= start for t in crashed.get(host, ()))
            if at <= start and want & host_mask((r,)) and host != r and up_since:
                last[host] = held
        for held in last.values():
            for det, mask in held.items():
                if (mask | 2 << det.receiver) & host_mask((r,)):
                    assert det in holds, (r, det)
