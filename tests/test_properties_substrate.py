"""Property-based tests on the simulation substrate itself.

The substrate's guarantees (deterministic event ordering, per-channel
FIFO delivery, storage-device serialization) are load-bearing for every
protocol above it, so they get direct adversarial testing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import Message, MessageKind, Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.stable import StableStorage

from helpers import UniformLatency, full_mesh


@settings(max_examples=40)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40
    )
)
def test_kernel_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=40)
@given(
    labels=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=30),
    delay=st.floats(min_value=0.0, max_value=5.0),
)
def test_kernel_same_instant_is_fifo(labels, delay):
    sim = Simulator()
    fired = []
    for label in labels:
        sim.schedule(delay, fired.append, label)
    sim.run()
    assert fired == labels


@settings(max_examples=30)
@given(
    count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
    low=st.floats(min_value=0.0001, max_value=0.01),
    spread=st.floats(min_value=0.0, max_value=0.05),
)
def test_network_fifo_per_channel_under_jitter(count, seed, low, spread):
    """No matter how the latency jitters, a channel never reorders."""
    sim = Simulator()
    net = Network(
        sim,
        full_mesh(2),
        latency=UniformLatency(low, low + spread),
        rngs=RngRegistry(seed),
    )
    received = []
    net.register(1, lambda m: received.append(m.payload["i"]))
    for i in range(count):
        net.send(Message(src=0, dst=1, kind=MessageKind.APPLICATION,
                         mtype="app", payload={"i": i}))
    sim.run()
    assert received == list(range(count))


@settings(max_examples=30)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=20)
)
def test_storage_serializes_and_completes_in_order(sizes):
    sim = Simulator()
    storage = StableStorage(sim, owner=0, op_latency=0.001, bandwidth_bps=1e6)
    done = []
    for index, size in enumerate(sizes):
        storage.write(f"k{index}", index, size,
                      on_done=lambda index=index: done.append((index, sim.now)))
    sim.run()
    assert [index for index, _ in done] == list(range(len(sizes)))
    times = [t for _, t in done]
    assert times == sorted(times)
    # total busy time equals the sum of op durations
    expected = sum(0.001 + size / 1e6 for size in sizes)
    assert abs(storage.stats.busy_time - expected) < 1e-9


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_identical_seeds_identical_network_timing(seed):
    def run():
        sim = Simulator()
        net = Network(sim, full_mesh(3), rngs=RngRegistry(seed))
        arrivals = []
        net.register(1, lambda m: arrivals.append(sim.now))
        for i in range(10):
            net.send(Message(src=0, dst=1, kind=MessageKind.APPLICATION,
                             mtype="app", payload={"i": i}))
        sim.run()
        return arrivals

    assert run() == run()


@settings(max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=0, max_value=100_000),
)
def test_latency_models_never_negative(seed, size):
    import random

    rng = random.Random(seed)
    from repro.net.latency import AtmLinkModel, BandwidthLatency

    for model in (
        BandwidthLatency(1e6, 0.0005, 0.0001, 0.2),
        AtmLinkModel(),
    ):
        assert model.sample(size, rng) >= 0.0
