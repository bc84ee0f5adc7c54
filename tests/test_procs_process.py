"""Unit tests for the deterministic application process."""

from repro.procs.process import ApplicationProcess, Send
from repro.workloads import make_workload


def make(node_id=0, n=4, workload=None):
    return ApplicationProcess(node_id, n, workload or make_workload("uniform", hops=4))


def test_initial_digest_depends_on_identity():
    assert make(0).digest != make(1).digest
    assert make(0).digest == make(0).digest


def test_deliver_advances_count_and_history():
    app = make()
    app.deliver(1, 0, {"hops": 0})
    app.deliver(2, 0, {"hops": 0})
    assert app.delivered_count == 2
    assert app.delivery_history == [(1, 0), (2, 0)]


def test_deliver_is_deterministic():
    a, b = make(), make()
    sends_a = a.deliver(1, 0, {"chain": "1.0", "hops": 3})
    sends_b = b.deliver(1, 0, {"chain": "1.0", "hops": 3})
    assert sends_a == sends_b
    assert a.digest == b.digest


def test_different_delivery_order_diverges():
    a, b = make(), make()
    a.deliver(1, 0, {"hops": 0})
    a.deliver(2, 0, {"hops": 0})
    b.deliver(2, 0, {"hops": 0})
    b.deliver(1, 0, {"hops": 0})
    assert a.digest != b.digest


def test_snapshot_restore_round_trip():
    app = make()
    app.deliver(1, 0, {"hops": 1})
    snapshot = app.snapshot()
    app.deliver(2, 0, {"hops": 0})
    app.restore(snapshot)
    assert app.delivered_count == 1
    assert app.delivery_history == [(1, 0)]


def test_replay_from_snapshot_reproduces_digest():
    app = make()
    app.deliver(1, 0, {"hops": 1})
    snapshot = app.snapshot()
    app.deliver(2, 0, {"hops": 0})
    final_digest = app.digest
    app.restore(snapshot)
    app.deliver(2, 0, {"hops": 0})
    assert app.digest == final_digest


def test_snapshot_is_independent_copy():
    app = make()
    snapshot = app.snapshot()
    app.deliver(1, 0, {"hops": 0})
    assert snapshot["delivered_count"] == 0
    assert snapshot["delivery_history"] == []


def test_reset_returns_to_initial():
    app = make()
    initial = app.digest
    app.deliver(1, 0, {"hops": 0})
    app.reset()
    assert app.digest == initial
    assert app.delivered_count == 0


def test_initial_sends_deterministic():
    assert make(0).initial_sends() == make(0).initial_sends()


def test_send_dataclass_defaults():
    send = Send(dst=3, payload={"a": 1})
    assert send.body_bytes == 128


def test_digest_chain_bytes_are_pinned():
    """The digest chain is inside ``sim_fingerprint`` and every golden:
    these strings were read from the commit before the delivery path was
    flattened (PR 21) and must not move without a chain-format PR.  The
    two-key payloads arrive in both key orders (the record sorts them)."""
    app = ApplicationProcess(2, 5, make_workload("uniform", hops=4, seed=7))
    assert app.digest == (
        "b6a81c8eeef36a7efb9fb32d07ca9801fe7a1a1884aae716322634d8737702a9")
    chain = []
    for sender, ssn, payload in (
        (0, 0, {"chain": "0.1", "hops": 3}),
        (4, 2, {"hops": 2, "chain": "4.0"}),
        (1, 11, {"chain": "1.1", "hops": 0}),
    ):
        sends = app.deliver(sender, ssn, payload)
        chain.append((app.digest, [tuple(send) for send in sends]))
    assert chain == [
        ("d2499db915cbe3686acfc91f7fe03401db04b609f2ed7caf7fef882f14911e41",
         [(0, {"chain": "0.1", "hops": 2}, 128)]),
        ("de3ff977e9d8cbcb32a45d2cb4768ec2cde49a2888592760da2bdc369da3c61b",
         [(1, {"chain": "4.0", "hops": 1}, 128)]),
        ("7558179a4c353e7dbc8e5c2749257a002488d645e9db2668890026d2352f4640", []),
    ]
