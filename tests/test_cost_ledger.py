"""The communication-cost ledger: conservation, purity, merge parity.

The keystone property is **byte conservation**: every account the
ledger keeps is charged at exactly the statements that mutate the
pre-existing network/storage stats, so account sums must equal those
totals *to the byte* -- across every protocol family, both recovery
algorithms of the paper, group commit, compaction, and lossy links.

The second property is **purity**: the ledger and its time-series
sampler are host-side bookkeeping, so enabling them must reproduce the
seed goldens byte-identically (same event count, same timestamps, same
digests), exactly like spans and the profiler.
"""

import json
import math

import pytest

from repro import build_system
from repro.core.config import FaultConfig, StorageRealismConfig
from repro.experiments import failure_during_recovery, single_failure
from repro.net.network import MessageKind, NetworkStats
from repro.obs import (
    PURPOSES,
    CostLedger,
    classify_storage,
    classify_wire,
    merge_cost_dumps,
)
from repro.procs.failure import crash_at
from repro.runner import TrialRunner, TrialSpec, merge_cost, merge_metrics
from repro.storage.stable import StableStorageStats

from helpers import small_config
from test_seed_regression import BUILDERS, GOLDEN, snapshot

PARALLEL_JOBS = 4

#: every protocol family x its natural recovery manager, plus the
#: paper's blocking alternative for fbl
MATRIX = [
    ("fbl", "nonblocking"),
    ("fbl", "blocking"),
    ("sender_based", "nonblocking"),
    ("manetho", "nonblocking"),
    ("pessimistic", "local"),
    ("optimistic", "optimistic"),
    ("coordinated", "coordinated"),
]


def _cost_config(protocol, recovery, **overrides):
    """A crashing scenario with periodic checkpoints, ledger on."""
    return small_config(
        protocol=protocol,
        recovery=recovery,
        crashes=[crash_at(node=2, time=0.05)],
        checkpoint_every=overrides.pop("checkpoint_every", 3),
        cost_ledger=True,
        timeseries_window=overrides.pop("timeseries_window", 0.02),
        **overrides,
    )


# ----------------------------------------------------------------------
# classifiers
# ----------------------------------------------------------------------
def test_classify_wire_taxonomy():
    assert classify_wire("application", "app") == "app-payload"
    assert classify_wire("protocol", "msg_ack") == "control-plane"
    assert classify_wire("protocol", "retransmit_data") == "recovery-data"
    assert classify_wire("protocol", "det_push") == "determinant-log"
    assert classify_wire("protocol", "gc_notice") == "gc-metadata"
    assert classify_wire("recovery", "ord_request") == "control-plane"
    assert classify_wire("recovery", "recovery_reply") == "recovery-data"
    assert classify_wire("recovery", "depinfo_reply") == "recovery-data"
    assert classify_wire("storage", "det_write") == "determinant-log"
    assert classify_wire("transport", "ack") == "control-plane"


def test_classify_storage_taxonomy():
    assert classify_storage("checkpoint:3:2") == "checkpoint"
    assert classify_storage("round:5:1") == "checkpoint"
    assert classify_storage("recovery_reply:4:1") == "recovery-data"
    assert classify_storage("committed:2") == "control-plane"
    assert classify_storage("determinants", is_log=True) == "determinant-log"


def test_every_classifier_output_is_in_the_taxonomy():
    for kind in ("application", "protocol", "recovery", "storage", "transport"):
        for mtype in ("app", "msg_ack", "retransmit_data", "det_push",
                      "gc_notice", "stable_info", "ord_request",
                      "recovery_reply", "depinfo_reply", "whatever"):
            assert classify_wire(kind, mtype) in PURPOSES
    for name in ("checkpoint:1:1", "round:2:0", "recovery_reply:1:2",
                 "committed:0", "gather:3", "anything"):
        assert classify_storage(name) in PURPOSES
        assert classify_storage(name, is_log=True) in PURPOSES


# ----------------------------------------------------------------------
# byte conservation (the keystone)
# ----------------------------------------------------------------------
def _assert_conserved(system, result):
    cost = result.extra["cost"]
    conservation = cost["conservation"]
    assert conservation["conserved"], conservation
    # spot-check the equalities the flag summarizes
    stats = system.network.stats
    assert conservation["wire_bytes"]["ledger"] == (
        stats.total_bytes() + stats.retransmit_bytes
    )
    assert conservation["wire_messages"]["ledger"] == stats.total_messages()
    total_storage = sum(
        node.storage.stats.bytes_read + node.storage.stats.bytes_written
        for node in system.nodes
    )
    assert conservation["storage_bytes"]["ledger"] == total_storage
    # the roll-up is JSON-able (the CLI and CI artifact depend on it)
    json.dumps(cost)


@pytest.mark.parametrize("protocol,recovery", MATRIX)
def test_byte_conservation_across_protocol_matrix(protocol, recovery):
    system = build_system(_cost_config(protocol, recovery))
    result = system.run()
    assert result.consistent
    _assert_conserved(system, result)
    cost = result.extra["cost"]
    assert cost["episodes"] >= 1
    # a crash ran: some bytes must be attributed to a recovery phase
    assert any(
        phase.startswith("recovery-") for phase in cost["wire"]["by_phase"]
    )


def test_conservation_with_group_commit_and_compaction():
    """Batched flushes charge one device op; compaction credits GC."""
    # pessimistic logs every determinant, so appends actually batch
    config = _cost_config(
        "pessimistic",
        "local",
        storage_realism=StorageRealismConfig(
            incremental_checkpoints=True,
            group_commit=True,
            batch_window=0.005,
            log_compaction=True,
        ),
    )
    system = build_system(config)
    result = system.run()
    _assert_conserved(system, result)
    cost = result.extra["cost"]
    assert cost["gc"]["total_bytes"] > 0
    assert sum(n.storage.stats.batch_flushes for n in system.nodes) > 0
    assert cost["storage"]["by_purpose"]["determinant-log"] > 0


def test_conservation_with_lossy_links_charges_retransmits():
    config = _cost_config(
        "fbl",
        "nonblocking",
        transport="reliable",
        transport_params={"max_retries": 30},
        faults=FaultConfig(loss_prob=0.05),
    )
    system = build_system(config)
    result = system.run()
    _assert_conserved(system, result)
    cost = result.extra["cost"]
    assert cost["wire"]["retransmits"] > 0
    assert cost["wire"]["by_purpose"]["retransmit"] > 0


def test_conservation_reads_the_storage_accounts():
    """A flush whose entries re-add to less than the device wrote is
    caught: the storage column is summed from the accounts."""
    ledger = CostLedger()
    ledger.charge_batch(0.0, 0, [("fbl:0", 10)], 20)
    report = ledger.conservation(
        NetworkStats(), {0: StableStorageStats(writes=1, bytes_written=20)}
    )
    assert report["storage_bytes"] == {"ledger": 10, "expected": 20}
    assert report["storage_ops"] == {"ledger": 1, "expected": 1}
    assert not report["per_device"]
    assert not report["conserved"]


def test_conservation_checks_each_device_not_just_the_sum():
    """Two mis-summed flushes whose errors cancel in the total still
    fail the per-device check."""
    ledger = CostLedger()
    ledger.charge_batch(0.0, 0, [("fbl:0", 10)], 20)
    ledger.charge_batch(0.0, 1, [("fbl:1", 20), ("fbl:1", 10)], 20)
    report = ledger.conservation(NetworkStats(), {
        0: StableStorageStats(writes=1, bytes_written=20),
        1: StableStorageStats(writes=1, bytes_written=20),
    })
    assert report["storage_bytes"] == {"ledger": 40, "expected": 40}
    assert not report["per_device"]
    assert not report["conserved"]


def test_conservation_counts_messages_and_gc_from_the_accounts():
    ledger = CostLedger()
    stats = NetworkStats()
    stats.record(MessageKind.APPLICATION, 100)
    stats.record_retransmit(100)
    ledger.charge_wire(0.0, 0, 1, "application", "app", 100, 64, 32, False)
    ledger.charge_wire(0.0, 0, 1, "application", "app", 100, 64, 32, True)
    ledger.charge_gc(0.0, 0, 7)
    device = StableStorageStats(bytes_reclaimed=7, reclaims=1)
    report = ledger.conservation(stats, {0: device})
    assert report["wire_messages"] == {"ledger": 1, "expected": 1}
    assert report["wire_retransmits"] == {"ledger": 1, "expected": 1}
    assert report["wire_bytes"] == {"ledger": 200, "expected": 200}
    assert report["conserved"]
    device.bytes_reclaimed = 8
    assert not ledger.conservation(stats, {0: device})["conserved"]


# ----------------------------------------------------------------------
# purity: goldens stay byte-identical with the ledger on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_goldens_identical_with_ledger_and_sampler_on(key):
    scenario = {
        "e1-nonblocking": lambda: build_system(single_failure(
            recovery="nonblocking", cost_ledger=True, timeseries_window=0.01)),
        "e1-blocking": lambda: build_system(single_failure(
            recovery="blocking", cost_ledger=True, timeseries_window=0.01)),
        "e2-nonblocking": lambda: build_system(failure_during_recovery(
            recovery="nonblocking", cost_ledger=True, timeseries_window=0.01)),
        "e2-blocking": lambda: build_system(failure_during_recovery(
            recovery="blocking", cost_ledger=True, timeseries_window=0.01)),
    }[key]
    assert snapshot(scenario()) == GOLDEN[key]


def test_ledger_adds_no_simulated_events():
    plain = build_system(single_failure(recovery="nonblocking")).run()
    costed = build_system(single_failure(
        recovery="nonblocking", cost_ledger=True, timeseries_window=0.01
    )).run()
    assert costed.extra["events_processed"] == plain.extra["events_processed"]
    assert costed.end_time == plain.end_time
    assert costed.digests == plain.digests


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def test_phase_attribution_failure_free_run_has_one_phase():
    system = build_system(small_config(cost_ledger=True))
    result = system.run()
    cost = result.extra["cost"]
    assert cost["episodes"] == 0
    assert list(cost["wire"]["by_phase"]) == ["failure-free"]


def test_two_episodes_get_distinct_phases():
    result = build_system(failure_during_recovery(
        recovery="nonblocking", cost_ledger=True
    )).run()
    cost = result.extra["cost"]
    assert cost["episodes"] == 2
    phases = set(cost["wire"]["by_phase"])
    assert "recovery-1" in phases and "recovery-2" in phases
    # failure-free sorts first in the roll-up
    assert next(iter(cost["wire"]["by_phase"])) == "failure-free"


# ----------------------------------------------------------------------
# time-series sampler
# ----------------------------------------------------------------------
def test_sampler_windows_sum_to_ledger_totals():
    system = build_system(_cost_config("fbl", "nonblocking"))
    result = system.run()
    samples = result.extra["timeseries"]
    cost = result.extra["cost"]
    assert samples
    assert sum(s["wire_bytes"] for s in samples) == cost["wire"]["total_bytes"]
    assert sum(s["storage_bytes"] for s in samples) == cost["storage"]["total_bytes"]
    assert sum(s["storage_ops"] for s in samples) == cost["storage"]["ops"]
    per_purpose = {}
    for sample in samples:
        for purpose, nbytes in sample["wire"].items():
            per_purpose[purpose] = per_purpose.get(purpose, 0) + nbytes
    assert per_purpose == {
        k: v for k, v in cost["wire"]["by_purpose"].items() if v
    }


def test_sampler_memory_is_bounded_by_downsampling():
    config = _cost_config(
        "fbl", "nonblocking", timeseries_window=0.0005,
        timeseries_max_samples=16,
    )
    system = build_system(config)
    result = system.run()
    samples = result.extra["timeseries"]
    assert len(samples) <= 16
    # downsampling doubled the window; each sample records its own width
    assert max(s["window"] for s in samples) > 0.0005
    # and the coarsened curve still conserves bytes
    assert (
        sum(s["wire_bytes"] for s in samples)
        == result.extra["cost"]["wire"]["total_bytes"]
    )


def test_sampler_windows_tile_the_run_across_downsamples():
    """A sample's ``window`` is the span it covers: widths tile
    ``[0, last t]`` and every sample starts where the previous one ended,
    however often the grid coarsened (here 1 -> 2 -> 4 -> 8 -> 16)."""
    from repro.obs import CostSampler

    ledger = CostLedger()
    sampler = CostSampler(ledger, window=1.0, max_samples=4)
    widths_seen = set()
    for step in range(41):
        ledger.charge_storage(step + 0.5, 0, "write", "checkpoint:0", 10)
        widths_seen.add(sampler.window)
        assert sampler.next_boundary % sampler.window == 0  # on the grid
    sampler.finalize(40.5)
    assert len(widths_seen) >= 3  # at least two downsamples happened
    samples = sampler.samples
    assert len(samples) <= 4
    previous = 0.0
    for sample in samples:
        assert sample["t"] - previous == sample["window"]
        # one 10-byte charge at every k + 0.5: the rate is exact
        assert sample["storage_bytes"] == 10 * math.ceil(sample["window"])
        previous = sample["t"]
    assert previous == 40.5
    assert sum(s["window"] for s in samples) == 40.5
    assert sum(s["storage_bytes"] for s in samples) == 410


def test_sampler_validates_knobs():
    import pytest as _pytest

    from repro.obs import CostSampler

    with _pytest.raises(ValueError):
        CostSampler(CostLedger(), window=0.0)
    with _pytest.raises(ValueError):
        CostSampler(CostLedger(), window=0.1, max_samples=1)


def test_chrome_export_builds_counter_tracks_from_samples():
    from repro.analysis.chrome import chrome_trace_events

    system = build_system(_cost_config("fbl", "nonblocking"))
    system.run()
    events = chrome_trace_events(system.trace)
    counters = [e for e in events if e["ph"] == "C"]
    wire = [e for e in counters if e["name"].startswith("wire")]
    assert wire and all(e["ts"] >= 0 for e in wire)
    # every wire counter event carries the same purpose series (Perfetto
    # needs aligned keys to stack them)
    keys = {tuple(sorted(e["args"])) for e in wire}
    assert len(keys) == 1
    # the counter track conserves bytes with the ledger
    total = sum(sum(e["args"].values()) for e in wire)
    assert total == system.cost.totals()["wire_bytes"]


# ----------------------------------------------------------------------
# flamegraph export
# ----------------------------------------------------------------------
def test_flame_lines_attribute_bytes_down_the_span_tree():
    config = _cost_config("fbl", "nonblocking", spans=True)
    system = build_system(config)
    result = system.run()
    lines = system.cost.flame_lines()
    assert lines
    total = 0
    for line in lines:
        stack, _, size = line.rpartition(" ")
        frames = stack.split(";")
        assert frames[0].startswith("node ")
        assert frames[-1] in PURPOSES
        total += int(size)
    # flame stacks cover exactly the wire + storage charges (gc credits
    # are bookkeeping, not transferred bytes)
    cost = result.extra["cost"]
    assert total == cost["wire"]["total_bytes"] + cost["storage"]["total_bytes"]
    # recovery charges hang under recovery spans somewhere in the profile
    assert any("recovery" in line for line in lines)


# ----------------------------------------------------------------------
# runner dump / merge parity (any job count)
# ----------------------------------------------------------------------
def _fleet():
    specs = []
    for seed in range(3):
        # pessimistic batches log appends (feeding the batch histograms);
        # fbl covers the checkpoint-only storage profile
        for protocol, recovery in (("pessimistic", "local"), ("fbl", "blocking")):
            config = _cost_config(
                protocol, recovery,
                storage_realism=StorageRealismConfig(
                    group_commit=True, batch_window=0.005
                ),
            )
            specs.append(TrialSpec(
                config=config, seed=seed, label=f"{recovery}-{seed}",
            ))
    return specs


def test_ledger_merge_identical_at_any_job_count():
    serial = TrialRunner(jobs=1).run(_fleet())
    parallel = TrialRunner(jobs=PARALLEL_JOBS).run(_fleet())
    merged_serial = merge_cost(serial)
    merged_parallel = merge_cost(parallel)
    assert merged_serial.dump() == merged_parallel.dump()
    assert merged_serial.summary() == merged_parallel.summary()
    # the merged ledger really is the sum of its parts
    assert merged_serial.totals()["wire_bytes"] == sum(
        t.summary.extra["cost"]["wire"]["total_bytes"] for t in serial
    )
    assert merged_serial.totals()["storage_ops"] == sum(
        t.summary.extra["cost"]["storage"]["ops"] for t in serial
    )


def test_histogram_dump_merge_identical_at_any_job_count():
    """Histogram instruments (batch sizes, queue waits) keep raw samples
    through dump/merge, so percentiles match at any job count."""
    serial = TrialRunner(jobs=1).run(_fleet())
    parallel = TrialRunner(jobs=PARALLEL_JOBS).run(_fleet())
    snap_serial = merge_metrics(serial).snapshot()
    snap_parallel = merge_metrics(parallel).snapshot()
    assert snap_serial == snap_parallel
    hist = snap_serial["storage.batch_size_ops"]
    assert hist["count"] > 0
    assert hist["p50"] >= 1


def test_merge_cost_skips_costless_trials_and_handles_none():
    costless = TrialRunner(jobs=1).run(
        [TrialSpec(config=small_config(), label="plain")]
    )
    assert costless[0].cost is None
    assert merge_cost(costless) is None
    mixed = costless + TrialRunner(jobs=1).run(
        [TrialSpec(config=_cost_config("fbl", "nonblocking"), label="costed")]
    )
    merged = merge_cost(mixed)
    assert merged is not None and merged.totals()["wire_bytes"] > 0


def test_merge_cost_dumps_folds_counters_and_flame():
    a, b = CostLedger(), CostLedger()
    a.charge_wire(0.0, 1, 2, "application", "app", 100, 10, 0, False)
    b.charge_wire(0.0, 1, 2, "application", "app", 50, 10, 0, False)
    b.charge_gc(0.0, 1, 7)
    b.charge_storage(0.0, 1, "write", "checkpoint:1", 40)
    merged = merge_cost_dumps([a.dump(), b.dump()])
    totals = merged.totals()
    assert totals["wire_bytes"] == 150
    assert totals["wire_messages"] == 2
    assert totals["gc_bytes"] == 7
    assert (totals["storage_ops"], totals["storage_bytes"]) == (1, 40)
    assert totals["wire"]["app-payload"] == 130  # bodies only
    key = ("wire", 1, 2, "app-payload", "failure-free")
    assert merged.accounts[key] == [2, 130]
