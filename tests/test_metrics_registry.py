"""Tests for the named-instrument metrics registry."""

import pytest

from repro.core.metrics_registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _percentile,
)
from repro.experiments import single_failure


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
def test_counter_increments_and_rejects_negative():
    c = Counter("net.messages_sent")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 5


def test_gauge_tracks_high_water():
    g = Gauge("sim.events_processed")
    g.set(10)
    g.add(-3)
    assert g.value == 7
    assert g.high_water == 10
    g.set(50)
    assert g.high_water == 50


def test_histogram_percentiles_nearest_rank():
    h = Histogram("storage.op_latency")
    for v in [5, 1, 4, 2, 3]:
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == 15
    assert snap["mean"] == 3
    assert snap["p50"] == 3
    assert snap["p95"] == 5
    assert snap["max"] == 5


def test_empty_histogram_snapshot_is_zeros():
    snap = Histogram("storage.op_latency").snapshot()
    assert snap["count"] == 0
    assert snap["p50"] == 0 and snap["p95"] == 0 and snap["max"] == 0


def test_percentile_edge_cases():
    assert _percentile([10.0], 0.5) == 10.0
    assert _percentile([1.0, 2.0], 0.0) == 1.0
    assert _percentile([1.0, 2.0], 1.0) == 2.0


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registration_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("net.messages_sent")
    b = reg.counter("net.messages_sent")
    assert a is b
    assert len(reg) == 1


def test_names_validated_against_subsystems():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("nodotname")
    with pytest.raises(ValueError):
        reg.counter("bogus_subsystem.thing")
    # every documented subsystem is accepted
    for subsystem in ("net", "transport", "storage", "protocol", "recovery", "sim"):
        reg.counter(f"{subsystem}.ok")


def test_type_conflicts_rejected():
    reg = MetricsRegistry()
    reg.counter("net.messages_sent")
    with pytest.raises(ValueError):
        reg.gauge("net.messages_sent")
    with pytest.raises(ValueError):
        reg.histogram("net.messages_sent")


def test_snapshot_by_subsystem():
    reg = MetricsRegistry()
    reg.counter("net.messages_sent").inc(7)
    reg.histogram("storage.op_latency").observe(0.02)
    reg.gauge("sim.events_processed").set(100)
    full = reg.snapshot()
    assert set(full) == {
        "net.messages_sent", "storage.op_latency", "sim.events_processed"
    }
    assert full["net.messages_sent"] == {"type": "counter", "value": 7}
    net_only = reg.snapshot(subsystem="net")
    assert set(net_only) == {"net.messages_sent"}


# ----------------------------------------------------------------------
# a real run feeds the registry
# ----------------------------------------------------------------------
def test_run_populates_registry_and_result():
    system = single_failure(recovery="nonblocking")
    result = system.run()
    metrics = result.extra["metrics"]
    assert metrics["net.messages_sent"]["value"] > 0
    assert metrics["net.bytes_sent"]["value"] > 0
    assert metrics["storage.ops"]["value"] >= 1
    assert metrics["recovery.episodes"]["value"] == 1
    hist = metrics["recovery.episode_duration"]
    assert hist["count"] == 1
    assert hist["max"] == pytest.approx(result.episodes[0].total_duration)
    assert metrics["sim.events_processed"]["value"] == result.extra["events_processed"]


def test_summarize_twice_does_not_double_count():
    system = single_failure(recovery="nonblocking")
    system.run()
    again = system.summarize()
    assert again.extra["metrics"]["recovery.episodes"]["value"] == 1


def test_instruments_resolve_once_per_device_not_once_per_operation(monkeypatch):
    """The hot layers (network, transport, storage) bind their
    instruments when they first report, so ``_register`` -- a string
    split, a subsystem check and an ``isinstance`` -- runs O(instruments)
    per run, whatever the run's length."""
    from repro import build_system
    from repro.core.config import StorageRealismConfig

    from helpers import small_config

    resolved = []
    register = MetricsRegistry._register

    def counting(self, name, cls):
        resolved.append(name)
        return register(self, name, cls)

    monkeypatch.setattr(MetricsRegistry, "_register", counting)

    def run(hops):
        del resolved[:]
        system = build_system(small_config(
            n=4, protocol="pessimistic", recovery="local", hops=hops,
            checkpoint_every=5,
            storage_realism=StorageRealismConfig(
                incremental_checkpoints=True, group_commit=True, log_compaction=True
            ),
        ))
        metrics = system.run().extra["metrics"]
        assert metrics["storage.batch_flushes"]["value"] > 0
        assert metrics["storage.bytes_reclaimed"]["value"] > 0
        return metrics["storage.ops"]["value"], sorted(resolved)

    short_ops, short_resolved = run(hops=10)
    long_ops, long_resolved = run(hops=80)
    assert long_ops > 3 * short_ops
    assert long_resolved == short_resolved
    per_device = [name for name in long_resolved if name.startswith("storage.")]
    assert len(per_device) <= 4 * len(set(per_device))  # n = 4 devices


def test_counters_are_read_off_the_stats_once_at_summary_time(monkeypatch):
    """Each registry counter is written once, by ``summarize``, from the
    count of record: no ``Counter.inc`` on the per-message, per-ack or
    per-device-op path, and the values are the ``*Stats`` fields."""
    from repro import build_system
    from repro.core.config import FaultConfig, StorageRealismConfig
    from repro.procs.failure import crash_at

    from helpers import small_config

    written = []
    inc = Counter.inc
    monkeypatch.setattr(
        Counter, "inc", lambda self, amount=1: written.append(self.name) or inc(self, amount)
    )
    system = build_system(small_config(
        protocol="pessimistic", recovery="local", checkpoint_every=5,
        crashes=[crash_at(node=2, time=0.05)],
        transport="reliable", transport_params={"max_retries": 30},
        faults=FaultConfig(loss_prob=0.05),
        storage_realism=StorageRealismConfig(
            incremental_checkpoints=True, group_commit=True, log_compaction=True
        ),
    ))
    metrics = system.run().extra["metrics"]
    system.summarize()
    counters = {name: m["value"] for name, m in metrics.items() if m["type"] == "counter"}
    assert sorted(written) == sorted(counters)
    net = system.network.stats
    devices = [node.storage.stats for node in system.nodes]
    assert net.retransmits > 0
    derived = {
        name: value for name, value in counters.items()
        if not name.startswith(("recovery.", "protocol."))
    }
    assert derived == {
        "net.messages_sent": net.total_messages() + net.retransmits,
        "net.bytes_sent": net.total_bytes() + net.retransmit_bytes,
        "transport.retransmits": net.retransmits,
        "transport.acks_sent": system.transport.stats.acks_sent,
        "storage.ops": sum(s.operations for s in devices),
        "storage.bytes": sum(s.total_bytes for s in devices),
        "storage.batched_appends": sum(s.batched_appends for s in devices),
        "storage.batch_flushes": sum(s.batch_flushes for s in devices),
        "storage.bytes_reclaimed": sum(s.bytes_reclaimed for s in devices),
    }


def test_counter_keys_appear_only_where_their_counts_moved():
    """``net.*`` always; ``transport.*`` only with a transport; a
    ``storage.*`` counter only once its device count is non-zero."""
    from repro import build_system

    from helpers import small_config

    metrics = build_system(small_config(hops=6)).run().extra["metrics"]
    assert {"net.messages_sent", "net.bytes_sent", "net.message_bytes"} <= set(metrics)
    assert not [name for name in metrics if name.startswith("transport.")]
    assert not {"storage.ops", "storage.bytes", "storage.batched_appends",
                "storage.batch_flushes", "storage.bytes_reclaimed"} & set(metrics)
