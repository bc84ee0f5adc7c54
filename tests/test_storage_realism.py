"""Feature tests for the storage-realism layer.

Three levels of coverage:

* unit tests for group-commit batching on :class:`StableStorage`
  (queueing, flush triggers, crash loss, amortisation);
* unit tests for incremental checkpoint chains on
  :class:`CheckpointStore` (delta charging, forced fulls, reclaim on
  supersession, chain restore);
* integration: a disabled :class:`StorageRealismConfig` is
  byte-identical to the seed's ``storage_realism=None`` path, and the
  all-on configuration keeps every protocol stack consistent under a
  crash with the sanitizer running.
"""

import pytest

from repro.core.config import StorageRealismConfig
from repro.procs.failure import crash_at
from repro.sim.kernel import Simulator
from repro.storage.checkpoint import CheckpointStore
from repro.storage.stable import GroupCommitPolicy, StableStorage

from .helpers import run_small

OP = 0.01
BW = 1_000_000.0


def make_storage(policy=None):
    sim = Simulator()
    storage = StableStorage(
        sim, owner=0, op_latency=OP, bandwidth_bps=BW, group_commit=policy
    )
    return sim, storage


# ---------------------------------------------------------------------------
# group commit
# ---------------------------------------------------------------------------

def test_appends_below_thresholds_flush_on_window():
    sim, storage = make_storage(GroupCommitPolicy(window=0.05, max_ops=10))
    done = []
    storage.log_append("l", "a", 100, on_done=lambda: done.append(sim.now))
    storage.log_append("l", "b", 100, on_done=lambda: done.append(sim.now))
    assert storage.log_len("l") == 0
    sim.run()
    # both appends became durable in one device operation at window + op cost
    assert storage.log_len("l") == 2
    assert storage.stats.writes == 1
    assert storage.stats.batched_appends == 2
    assert storage.stats.batch_flushes == 1
    expected = 0.05 + OP + 200 / BW
    assert done == [pytest.approx(expected)] * 2


def test_projected_deadline_returned_for_queued_append():
    sim, storage = make_storage(GroupCommitPolicy(window=0.05, max_ops=10))
    deadline = storage.log_append("l", "a", 100)
    assert deadline == pytest.approx(0.05)


def test_max_ops_threshold_flushes_immediately():
    sim, storage = make_storage(GroupCommitPolicy(window=10.0, max_ops=3))
    done = []
    for entry in "abc":
        storage.log_append("l", entry, 100, on_done=lambda: done.append(sim.now))
    sim.run()
    # no 10-second window wait: the third append tripped the ops threshold
    assert done == [pytest.approx(OP + 300 / BW)] * 3
    assert storage.stats.batch_flushes == 1


def test_max_bytes_threshold_flushes_immediately():
    sim, storage = make_storage(
        GroupCommitPolicy(window=10.0, max_ops=100, max_bytes=150)
    )
    storage.log_append("l", "a", 100)
    storage.log_append("l", "b", 100)
    sim.run()
    assert sim.now == pytest.approx(OP + 200 / BW)
    assert storage.stats.batch_flushes == 1


def test_entries_become_durable_in_enqueue_order():
    sim, storage = make_storage(GroupCommitPolicy(window=0.01, max_ops=10))
    order = []
    storage.log_append("l", "first", 10, on_done=lambda: order.append("first"))
    storage.log_append("l", "second", 10, on_done=lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second"]
    assert storage.peek("log:l") == ["first", "second"]


def test_crash_loses_queued_appends():
    sim, storage = make_storage(GroupCommitPolicy(window=1.0, max_ops=10))
    done = []
    storage.log_append("l", "a", 100, on_done=lambda: done.append("a"))
    storage.log_append("l", "b", 100, on_done=lambda: done.append("b"))
    storage.abort_pending()
    sim.run()
    # the write buffer is volatile: nothing landed, nothing fires
    assert done == []
    assert storage.log_len("l") == 0
    assert storage.stats.batch_lost == 2
    assert storage.stats.writes == 0


def test_group_commit_amortises_device_time():
    appends = 10
    sim_b, batched = make_storage(GroupCommitPolicy(window=0.005, max_ops=64))
    sim_f, flat = make_storage(None)
    for i in range(appends):
        batched.log_append("l", i, 200)
        flat.log_append("l", i, 200)
    sim_b.run()
    sim_f.run()
    assert batched.log_len("l") == flat.log_len("l") == appends
    # one op latency for the batch vs one per append
    assert batched.stats.busy_time == pytest.approx(OP + appends * 200 / BW)
    assert flat.stats.busy_time == pytest.approx(appends * (OP + 200 / BW))
    assert batched.stats.busy_time < flat.stats.busy_time


def test_multiple_batches_over_time():
    sim, storage = make_storage(GroupCommitPolicy(window=0.01, max_ops=64))
    storage.log_append("l", "a", 10)
    sim.run()
    storage.log_append("l", "b", 10)
    sim.run()
    assert storage.stats.batch_flushes == 2
    assert storage.peek("log:l") == ["a", "b"]


# ---------------------------------------------------------------------------
# incremental checkpoints
# ---------------------------------------------------------------------------

def make_store(full_every=4, min_delta=100, incremental=True):
    sim, storage = make_storage()
    store = CheckpointStore(
        storage, node=0, incremental=incremental,
        full_every=full_every, min_delta_bytes=min_delta,
    )
    return sim, storage, store


def save(sim, store, dirty_bytes, state_bytes=10_000):
    cp = store.save(
        delivered_count=0, app_state={}, send_seqnos={},
        state_bytes=state_bytes, taken_at=sim.now, dirty_bytes=dirty_bytes,
    )
    sim.run()
    return cp


def test_first_checkpoint_is_full():
    sim, _storage, store = make_store()
    cp = save(sim, store, dirty_bytes=500)
    assert not cp.incremental
    assert cp.charged_bytes == 10_000
    assert store.chain_length == 1


def test_subsequent_checkpoints_are_charged_deltas():
    sim, _storage, store = make_store()
    save(sim, store, dirty_bytes=500)
    cp = save(sim, store, dirty_bytes=500)
    assert cp.incremental
    assert cp.charged_bytes == 500
    assert store.chain_length == 2
    assert store.delta_segments == 1


def test_delta_charge_clamped_to_floor_and_full():
    sim, _storage, store = make_store(min_delta=100)
    save(sim, store, dirty_bytes=500)
    tiny = save(sim, store, dirty_bytes=10)
    assert tiny.charged_bytes == 100  # min_delta_bytes floor
    huge = save(sim, store, dirty_bytes=50_000)
    # dirtying the whole image degenerates to a full segment
    assert not huge.incremental
    assert huge.charged_bytes == 10_000


def test_periodic_full_bounds_chain_and_reclaims_old_chain():
    sim, storage, store = make_store(full_every=3)
    chain_lengths = []
    for _ in range(7):
        save(sim, store, dirty_bytes=500)
        chain_lengths.append(store.chain_length)
    # full, d, d, full (chain resets), d, d, full
    assert chain_lengths == [1, 2, 3, 1, 2, 3, 1]
    assert store.full_segments == 3
    assert store.delta_segments == 4
    assert max(chain_lengths) <= store.full_every
    # each new full reclaimed the superseded chain (full + 2 deltas)
    assert storage.stats.reclaims == 2 * 3
    assert storage.stats.bytes_reclaimed == 2 * (10_000 + 500 + 500)


def test_restore_reads_whole_chain_and_returns_newest():
    sim, storage, store = make_store(full_every=8)
    save(sim, store, dirty_bytes=500)
    save(sim, store, dirty_bytes=500)
    newest = save(sim, store, dirty_bytes=500)
    start = sim.now
    got = []
    finish = store.restore(got.append)
    sim.run()
    assert got == [newest]
    # one device op per segment: full + two deltas
    expected = 3 * OP + (10_000 + 500 + 500) / BW
    assert finish - start == pytest.approx(expected)


def test_checkpoint_after_restore_is_forced_full():
    sim, _storage, store = make_store()
    save(sim, store, dirty_bytes=500)
    save(sim, store, dirty_bytes=500)
    store.restore(lambda _cp: None)
    sim.run()
    cp = save(sim, store, dirty_bytes=500)
    # no dirty baseline survives a restore: the next segment must be full
    assert not cp.incremental
    assert store.chain_length == 1


def test_flat_mode_accounting_untouched():
    sim, storage, store = make_store(incremental=False)
    cp = save(sim, store, dirty_bytes=500)
    # flat mode ignores dirty_bytes entirely: the seed's cost model
    assert not cp.incremental
    assert cp.charged_bytes == 10_000
    assert storage.stats.bytes_written == 10_000
    assert store.chain_length == 1


def test_incremental_bytes_written_less_than_flat():
    sim_i, storage_i, inc = make_store(full_every=8)
    sim_f, storage_f, flat = make_store(incremental=False)
    for _ in range(6):
        save(sim_i, inc, dirty_bytes=500)
        save(sim_f, flat, dirty_bytes=500)
    assert storage_i.stats.bytes_written < storage_f.stats.bytes_written


# ---------------------------------------------------------------------------
# integration: config plumbing
# ---------------------------------------------------------------------------

STACKS = [
    ("fbl", "nonblocking", 8),
    ("sender_based", "nonblocking", 8),
    ("manetho", "nonblocking", 8),
    ("pessimistic", "local", 8),
    # optimistic runs checkpoint-free: periodic checkpoints can be
    # orphaned by a later truncate (see the ROADMAP open item)
    ("optimistic", "optimistic", 0),
]


def _all_on_realism():
    return StorageRealismConfig(
        incremental_checkpoints=True,
        full_checkpoint_every=4,
        dirty_bytes_per_delivery=8_192,
        group_commit=True,
        batch_window=0.005,
        log_compaction=True,
    )


def test_disabled_realism_config_is_byte_identical_to_none():
    base = run_small(seed=5)
    disabled = run_small(seed=5, storage_realism=StorageRealismConfig())
    assert disabled.digests == base.digests
    assert disabled.end_time == base.end_time
    assert disabled.network.messages == base.network.messages


@pytest.mark.parametrize("protocol,recovery,ckpt", STACKS)
def test_all_on_realism_survives_crash_on_every_stack(protocol, recovery, ckpt):
    result = run_small(
        protocol=protocol,
        recovery=recovery,
        crashes=[crash_at(node=2, time=0.05)],
        storage_realism=_all_on_realism(),
        checkpoint_every=ckpt,
        sanitize=True,
        seed=3,
    )
    assert result.consistent
    assert result.extra["sanitizer"]["clean"]
    assert all(e.complete for e in result.episodes)
    stats = result.storage_ops[2]
    if ckpt:
        assert stats["delta_segments"] > 0
        assert stats["chain_length"] <= 4


def test_realism_reduces_storage_busy_time_end_to_end():
    flat = run_small(
        protocol="pessimistic", recovery="local",
        checkpoint_every=8, seed=3,
    )
    real = run_small(
        protocol="pessimistic", recovery="local",
        checkpoint_every=8, storage_realism=_all_on_realism(), seed=3,
    )
    busy_flat = sum(s["busy_time"] for s in flat.storage_ops.values())
    busy_real = sum(s["busy_time"] for s in real.storage_ops.values())
    assert busy_real < busy_flat
