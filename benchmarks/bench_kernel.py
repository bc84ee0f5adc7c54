"""Kernel hot-path microbenchmark -> ``BENCH_KERNEL.json``.

Tracks the simulation kernel's throughput from PR 3 onward so perf
regressions are caught by CI and wins are recorded next to the code
that bought them.  Three workloads:

* ``dispatch_chain`` -- pure schedule/pop/fire cost: a few concurrent
  self-rescheduling event chains, no cancellations.  Measures the
  per-event floor (Event construction, heap push/pop, dispatch).
* ``timer_churn`` -- the retransmit-timer pattern that hurt the seed
  kernel: every step schedules a far-deadline timer and cancels the
  previous one (an "ack" arriving long before the retransmit fires).
  Lazily-cancelled corpses pile up in the heap; with compaction the
  heap stays small, without it every push pays O(log corpses) and the
  final drain walks them all.
* ``huge_system`` -- intra-run scale: event chains hopping between
  thousands of per-process counters through the kernel's handle-free
  ``schedule_fast`` path (event-pool reuse, no EventHandle per hop).
  Tracks peak RSS and its flatness: ``rss_ratio`` compares the process
  peak at the end of the run against the peak at 10 % of the horizon,
  so unbounded per-event growth shows up as a ratio well above 1.
  The default (CI smoke) size is 2k processes / 400k events; pass
  ``--huge-full`` for the 10k-process / 10M-event version recorded
  under ``huge_system_full``.

Usage::

    python benchmarks/bench_kernel.py --capture after   # measure + store
    python benchmarks/bench_kernel.py --capture before  # (pre-optimisation)
    python benchmarks/bench_kernel.py --check           # CI smoke: fail on
                                                        # >30% events/sec loss
    python benchmarks/bench_kernel.py --runner-speedup  # E5/E11 serial vs
                                                        # --jobs 4 wall clock

The JSON keeps one measurement block per capture label; ``--check``
compares a fresh measurement against the committed ``after`` block and
exits non-zero if any workload's events/sec regressed more than
``--tolerance`` (default 0.30, i.e. 30 %).  Absolute numbers are
host-dependent; the before/after pair in the committed file was taken
on one machine in one sitting, so the ratio is meaningful even where
the absolutes are not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.runner import usable_cpus  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.sim.profile import peak_rss_kb  # noqa: E402

DEFAULT_PATH = os.path.join(_HERE, "BENCH_KERNEL.json")
DEFAULT_TOLERANCE = 0.30


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def bench_dispatch_chain(n_events: int = 400_000, chains: int = 4) -> Dict[str, Any]:
    """Raw dispatch throughput: no kwargs, no cancellations."""
    sim = Simulator()

    def tick(remaining: int) -> None:
        if remaining:
            sim.schedule(0.001, tick, remaining - 1)

    per_chain = n_events // chains
    for i in range(chains):
        sim.schedule(0.001 * (i + 1), tick, per_chain - 1)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "events": sim.events_processed,
        "wall_s": wall,
        "events_per_sec": sim.events_processed / wall,
        "peak_heap": chains,
    }


def bench_timer_churn(n_steps: int = 150_000, timer_delay: float = 30.0) -> Dict[str, Any]:
    """The retransmit-heavy pattern: schedule a far timer, cancel the
    previous one, repeat.  Exercises cancelled-corpse accumulation."""
    sim = Simulator()
    state = {"prev": None, "count": 0, "peak": 0}

    def step() -> None:
        state["count"] += 1
        prev = state["prev"]
        if prev is not None:
            prev.cancel()
        state["prev"] = sim.schedule(timer_delay, _noop, label="retransmit")
        if state["count"] < n_steps:
            sim.schedule(0.0001, step, label="step")
        depth = sim.pending_events
        if depth > state["peak"]:
            state["peak"] = depth

    sim.schedule(0.0, step, label="step")
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "events": sim.events_processed,
        "wall_s": wall,
        "events_per_sec": sim.events_processed / wall,
        "peak_heap": state["peak"],
    }


def bench_huge_system(
    n_procs: int = 2_000,
    n_events: int = 400_000,
    chains: int = 64,
) -> Dict[str, Any]:
    """Intra-run scale through the handle-free pooled path.

    ``chains`` concurrent event chains hop between ``n_procs``
    per-process counters via ``schedule_fast`` (an LCG picks the next
    hop, so the access pattern is scattered but deterministic).  No
    handles, no kwargs: every hop after the first ``EVENT_POOL_MAX``
    should be served by recycling a pooled Event.  ``rss_ratio`` is the
    process's peak RSS at the end of the run over its peak at 10 % of
    the horizon -- flat-memory execution keeps it near 1.0 regardless
    of ``n_events``.
    """
    from array import array

    sim = Simulator()
    counters = array("Q", [0]) * n_procs
    state = {"count": 0, "rss_tenth": 0}
    tenth = max(1, n_events // 10)

    def hop(proc: int, r: int) -> None:
        counters[proc] += 1
        count = state["count"] + 1
        state["count"] = count
        if count == tenth:
            state["rss_tenth"] = peak_rss_kb()
        if count < n_events:
            r = (r * 1103515245 + 12345) & 0x7FFFFFFF
            sim.schedule_fast(0.001, hop, r % n_procs, r)

    for i in range(chains):
        sim.schedule_fast(0.0005 * (i + 1), hop, i % n_procs, (i + 1) * 2654435761)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    rss_end = peak_rss_kb()
    rss_tenth = state["rss_tenth"] or rss_end
    return {
        "events": sim.events_processed,
        "wall_s": wall,
        "events_per_sec": sim.events_processed / wall,
        "peak_heap": chains,
        "n_procs": n_procs,
        "peak_rss_kb": rss_end,
        "rss_ratio": round(rss_end / rss_tenth, 3),
        "pool_reuses": sim.pool_reuses,
    }


#: rss_ratio above this fails --check / --huge-full: RSS at the end of
#: the run must stay within 1.5x the RSS at 10% of the horizon
RSS_RATIO_MAX = 1.5

WORKLOADS = {
    "dispatch_chain": bench_dispatch_chain,
    "timer_churn": bench_timer_churn,
    "huge_system": bench_huge_system,
}


def measure_all(repeats: int = 3) -> Dict[str, Any]:
    """Run every workload ``repeats`` times, keep the best (least noisy)
    by events/sec."""
    results: Dict[str, Any] = {}
    for name, fn in WORKLOADS.items():
        best: Optional[Dict[str, Any]] = None
        for _ in range(repeats):
            sample = fn()
            if best is None or sample["events_per_sec"] > best["events_per_sec"]:
                best = sample
        results[name] = best
        rss = (
            f"  rss_ratio {best['rss_ratio']:.2f}" if "rss_ratio" in best else ""
        )
        print(
            f"  {name:16s} {best['events']:>8d} events  "
            f"{best['events_per_sec']:>12.0f} ev/s  "
            f"peak heap {best['peak_heap']}{rss}"
        )
    return results


def host_info() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": usable_cpus(),
    }


# ----------------------------------------------------------------------
# runner speedup (E5 / E11 trial sets, serial vs parallel)
# ----------------------------------------------------------------------
def _e5_configs():
    sys.path.insert(0, _HERE)
    from paper_setup import paper_config

    from repro.procs.failure import crash_at

    configs = []
    for n in (4, 8, 16, 32):
        for recovery in ("blocking", "nonblocking"):
            configs.append(paper_config(
                f"e5-{recovery}-{n}", recovery=recovery, n=n,
                crashes=[crash_at(node=1, time=0.05)], hops=30,
                keep_trace_events=False,
            ))
    return configs


def _e11_configs():
    from repro.experiments import lossy_network

    configs = []
    for loss in (0.0, 0.02, 0.05, 0.1, 0.2):
        for recovery in ("blocking", "nonblocking"):
            system = lossy_network(
                recovery=recovery, loss=loss, victim=3,
                transport_params={"max_retries": 30},
            )
            configs.append(system.config)
    return configs


def measure_runner_speedup(jobs: int = 4) -> Dict[str, Any]:
    from repro.runner import TrialRunner, TrialSpec

    cpus = usable_cpus()
    out: Dict[str, Any] = {"jobs": jobs, "host_cpus": cpus}
    if cpus < jobs:
        # jobs workers time-slicing fewer CPUs measure the pool's
        # overhead, not its scaling: keep the timings, report no ratio
        out["skipped"] = (
            f"{cpus} usable cpu(s) < {jobs} jobs: the ratio would be pool "
            "overhead, not scaling"
        )
        print(f"  speedup not reported: {out['skipped']}")
    for name, maker in (("e5", _e5_configs), ("e11", _e11_configs)):
        specs = [TrialSpec(config=c) for c in maker()]
        t0 = time.perf_counter()
        serial = TrialRunner(jobs=1).run([TrialSpec(config=s.config) for s in specs])
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = TrialRunner(jobs=jobs).run(specs)
        parallel_s = time.perf_counter() - t0
        assert [r.summary for r in serial] == [r.summary for r in parallel], (
            f"{name}: serial/parallel parity violated"
        )
        speedup = None if "skipped" in out else round(serial_s / parallel_s, 2)
        out[name] = {
            "trials": len(specs),
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": speedup,
        }
        print(
            f"  {name}: {len(specs)} trials, serial {serial_s:.2f}s, "
            f"--jobs {jobs} {parallel_s:.2f}s "
            f"({'' if speedup is None else f'{speedup:.2f}x, '}parity ok)"
        )
    return out


# ----------------------------------------------------------------------
# persistence / CI check
# ----------------------------------------------------------------------
def load(path: str) -> Dict[str, Any]:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    return {"schema": 1, "captures": {}}


def save(path: str, data: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_capture(path: str, label: str) -> int:
    print(f"capturing '{label}' kernel numbers ...")
    data = load(path)
    data["captures"][label] = {
        "host": host_info(),
        "workloads": measure_all(),
        "peak_rss_kb": peak_rss_kb(),
    }
    before = data["captures"].get("before", {}).get("workloads")
    after = data["captures"].get("after", {}).get("workloads")
    if before and after:
        print("before -> after events/sec:")
        for name in WORKLOADS:
            # a workload may exist in only one capture (e.g. added after
            # the 'before' label was taken)
            if name not in before or name not in after:
                continue
            b = before[name]["events_per_sec"]
            a = after[name]["events_per_sec"]
            print(f"  {name:16s} {b:>12.0f} -> {a:>12.0f}  ({(a / b - 1) * 100:+.1f}%)")
    save(path, data)
    print(f"wrote {path}")
    return 0


def cmd_check(path: str, tolerance: float) -> int:
    data = load(path)
    baseline = data["captures"].get("after", {}).get("workloads")
    if not baseline:
        print(f"error: no 'after' capture in {path}; run --capture after first",
              file=sys.stderr)
        return 2
    print(f"kernel throughput smoke vs {path} (tolerance {tolerance:.0%}):")
    measured = measure_all()
    failed = []
    for name, stats in measured.items():
        if name not in baseline:
            print(f"  {name:16s} (no committed baseline; skipped)")
            continue
        want = baseline[name]["events_per_sec"] * (1.0 - tolerance)
        ok = stats["events_per_sec"] >= want
        print(
            f"  {name:16s} measured {stats['events_per_sec']:>12.0f} ev/s, "
            f"floor {want:>12.0f} ev/s: {'ok' if ok else 'REGRESSED'}"
        )
        if not ok:
            failed.append(name)
        if stats.get("rss_ratio", 0.0) > RSS_RATIO_MAX:
            print(
                f"  {name:16s} rss_ratio {stats['rss_ratio']:.2f} > "
                f"{RSS_RATIO_MAX:.2f}: MEMORY NOT FLAT"
            )
            failed.append(f"{name} (rss)")
    if failed:
        print(f"FAIL: events/sec regressed >{tolerance:.0%} on: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("ok: kernel throughput within tolerance")
    return 0


def cmd_huge_full(path: str) -> int:
    """The full-size huge_system run (10k procs, 10M events), recorded
    under ``huge_system_full``; fails if RSS is not flat vs horizon."""
    print("running full-size huge_system (10,000 procs, 10,000,000 events) ...")
    stats = bench_huge_system(n_procs=10_000, n_events=10_000_000)
    print(
        f"  {stats['events']} events in {stats['wall_s']:.1f}s "
        f"({stats['events_per_sec']:.0f} ev/s), peak RSS "
        f"{stats['peak_rss_kb'] / 1024:.1f} MB, rss_ratio {stats['rss_ratio']:.3f}, "
        f"pool reuses {stats['pool_reuses']}"
    )
    data = load(path)
    data["huge_system_full"] = {"host": host_info(), **stats}
    save(path, data)
    print(f"wrote {path}")
    if stats["rss_ratio"] > RSS_RATIO_MAX:
        print(
            f"FAIL: rss_ratio {stats['rss_ratio']:.3f} > {RSS_RATIO_MAX} "
            "(memory grows with horizon)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_runner_speedup(path: str, jobs: int) -> int:
    print(f"measuring trial-runner speedup (serial vs --jobs {jobs}) ...")
    data = load(path)
    data["runner"] = measure_runner_speedup(jobs=jobs)
    save(path, data)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=DEFAULT_PATH, help="JSON path")
    parser.add_argument("--capture", metavar="LABEL", default=None,
                        help="measure and store under this label (before/after)")
    parser.add_argument("--check", action="store_true",
                        help="CI smoke: compare vs the committed 'after' capture")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("BENCH_KERNEL_TOLERANCE",
                                                     DEFAULT_TOLERANCE)),
                        help="allowed fractional events/sec regression for --check")
    parser.add_argument("--runner-speedup", action="store_true",
                        help="measure E5/E11 serial vs parallel wall clock")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for --runner-speedup")
    parser.add_argument("--huge-full", action="store_true",
                        help="run the full-size huge_system workload "
                             "(10k procs, 10M events) and record it")
    args = parser.parse_args(argv)

    if args.check:
        return cmd_check(args.out, args.tolerance)
    if args.runner_speedup:
        return cmd_runner_speedup(args.out, args.jobs)
    if args.huge_full:
        return cmd_huge_full(args.out)
    return cmd_capture(args.out, args.capture or "after")


if __name__ == "__main__":
    sys.exit(main())
