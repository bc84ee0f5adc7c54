"""E3 -- sweep stable-storage latency and process size.

The paper's premise ("the relative increase in the penalty of accessing
stable storage"): as storage gets slower relative to the network, the
blocking baseline's intrusion grows, while the new algorithm's remains
zero and its message overhead constant.  We sweep both the device speed
and the process-image size ("restoring its state may take tens of
seconds or a few minutes", Section 2.2).
"""

import pytest

from repro import crash_at, run_config

from paper_setup import emit, once, paper_config

VICTIM = 3

DEVICES = [
    ("fast array", 0.002, 10e6),
    ("mid-90s disk", 0.020, 1e6),
    ("slow old disk", 0.060, 0.4e6),
]

STATE_SIZES = [100_000, 1_000_000, 10_000_000]


def _config(recovery, op_latency, bandwidth, state_bytes=1_000_000):
    return paper_config(
        f"e3-{recovery}-{op_latency}-{state_bytes}",
        recovery=recovery,
        crashes=[crash_at(node=VICTIM, time=0.05)],
        storage_op_latency=op_latency,
        storage_bandwidth=bandwidth,
        state_bytes=state_bytes,
    )


def run(recovery, op_latency, bandwidth, state_bytes=1_000_000):
    result = run_config(_config(recovery, op_latency, bandwidth, state_bytes))
    assert result.consistent
    return result


def _run_pairs(points):
    """Run (blocking, nonblocking) result pairs for each config-kwargs
    point through the parallel trial runner."""
    from repro.runner import run_results

    configs = [
        _config(recovery, *point)
        for point in points
        for recovery in ("blocking", "nonblocking")
    ]
    results = run_results(configs)
    for result in results:
        assert result.consistent
    return [(results[i], results[i + 1]) for i in range(0, len(results), 2)]


@pytest.mark.benchmark(group="exp3")
def test_exp3_device_speed_sweep(benchmark):
    rows = []
    measurements = {}
    pairs = _run_pairs([(op_latency, bandwidth)
                        for _, op_latency, bandwidth in DEVICES])
    for (label, op_latency, bandwidth), (blocking, nonblocking) in zip(DEVICES, pairs):
        measurements[label] = (blocking, nonblocking)
        rows.append([
            label,
            f"{blocking.mean_blocked_time(exclude=[VICTIM]) * 1000:.1f}",
            f"{nonblocking.mean_blocked_time(exclude=[VICTIM]) * 1000:.1f}",
            f"{blocking.recovery_durations()[0]:.2f}",
            f"{nonblocking.recovery_durations()[0]:.2f}",
        ])
    once(benchmark, lambda: run("nonblocking", *DEVICES[1][1:]))
    emit(
        "E3a intrusion vs storage device speed (1 MB process)",
        ["device", "blk blocked (ms)", "nb blocked (ms)",
         "blk recovery (s)", "nb recovery (s)"],
        rows,
    )
    blocked = [m[0].mean_blocked_time(exclude=[VICTIM]) for m in measurements.values()]
    # blocking intrusion grows monotonically with storage latency
    assert blocked[0] < blocked[1] < blocked[2]
    # the new algorithm never blocks anyone, regardless of the device
    assert all(m[1].total_blocked_time == 0.0 for m in measurements.values())


@pytest.mark.benchmark(group="exp3")
def test_exp3_process_size_sweep(benchmark):
    rows = []
    nb_blocked = []
    blk_blocked = []
    pairs = _run_pairs([(0.020, 1e6, state_bytes) for state_bytes in STATE_SIZES])
    for state_bytes, (blocking, nonblocking) in zip(STATE_SIZES, pairs):
        nb_blocked.append(nonblocking.total_blocked_time)
        blk_blocked.append(blocking.mean_blocked_time(exclude=[VICTIM]))
        rows.append([
            f"{state_bytes // 1000} KB",
            f"{blocking.recovery_durations()[0]:.2f}",
            f"{nonblocking.recovery_durations()[0]:.2f}",
            f"{blk_blocked[-1] * 1000:.1f}",
            f"{nb_blocked[-1] * 1000:.1f}",
        ])
    once(benchmark, lambda: run("nonblocking", 0.020, 1e6, STATE_SIZES[0]))
    emit(
        "E3b recovery and intrusion vs process size (mid-90s disk)",
        ["process size", "blk recovery (s)", "nb recovery (s)",
         "blk blocked (ms)", "nb blocked (ms)"],
        rows,
    )
    assert all(b == 0.0 for b in nb_blocked)
