"""One workload, measured in this (fresh) process.

``run.py`` starts this file as a subprocess per workload so that every
workload pays its own imports and starts from a clean heap.  The result
is one JSON object on the last line of stdout.

A *rep* runs the workload's fixed trial list once through
``TrialRunner(jobs=1)`` -- a batch, closed, single-thread load.  Every
end-to-end timing is ``time.process_time()`` (process CPU seconds): on
the shared 2-core sandbox wall time of identical runs spreads 1.04-4.03 s
while CPU stays within 0.88-1.05 s.  Wall is kept for
``bench.wall_over_cpu`` and for the spans (see ``spans.py`` for why).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(_HERE, os.pardir, os.pardir, "src"), _HERE]

from repro.core.system import System  # noqa: E402
from repro.net.network import MessageKind  # noqa: E402
from repro.runner import TrialResult, TrialRunner  # noqa: E402

import spans  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END, NOISY_WALL_OVER_CPU, PER_LAYER, fastest_quarter_mean, summarize,
)
from workloads import WORKLOADS, Workload  # noqa: E402

#: fewest timed reps a median is taken over, whatever ``--seconds`` says
MIN_REPS = 3


# ----------------------------------------------------------------------
# one rep
# ----------------------------------------------------------------------
class Rep:
    """One run of the trial list: host cost, verdicts, simulated totals.

    The trial results themselves are dropped unless ``keep_results``, so
    the heap -- and ``peak_rss_mb`` -- does not grow with the rep count."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        scale: float,
        call: Callable[[Callable[[], Any]], Any] = lambda run: run(),
        keep_results: bool = False,
    ) -> None:
        """``call`` wraps the timed region (the traced rep's root span)."""
        specs = workload.specs(seed, scale)
        self.trials = len(specs)
        results: List[TrialResult] = []
        error: Optional[Exception] = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            results = call(lambda: TrialRunner(jobs=1).run(specs))
        except Exception as raised:  # noqa: BLE001 - any crash fails the whole rep
            error = raised
        self.cpu_s = time.process_time() - cpu0
        self.wall_s = time.perf_counter() - wall0
        if error is not None:
            self.failures = [f"{spec.label}: rep raised {error!r}" for spec in specs]
        else:
            self.failures = [
                f"{result.label}: {reason}"
                for result in results
                for reason in _violations(result, workload.observed)
            ]
        self.failed_trials = len({line.split(":", 1)[0] for line in self.failures})
        self.fingerprint = sim_fingerprint(results)
        self.sim = sim_metrics(results)
        self.results = results if keep_results else []


def _violations(result: TrialResult, observed: bool) -> List[str]:
    """Why this trial's output is wrong (empty = correct)."""
    summary, extra = result.summary, result.summary.extra
    reasons = []
    if not summary.consistent:
        reasons.append(f"oracle: {summary.oracle_violations[0]}")
    if extra["non_live_nodes"]:
        reasons.append(f"nodes never recovered: {extra['non_live_nodes']}")
    if not extra["safety_checked"]:
        reasons.append("safety check skipped")
    if observed:
        if not extra["sanitizer"]["clean"]:
            reasons.append(f"sanitizer: {extra['sanitizer']['violations'][0]}")
        if not extra["cost"]["conserved"]:
            reasons.append("cost ledger not conserved")
    return reasons


def sim_fingerprint(results: Sequence[TrialResult]) -> str:
    """sha256 over what the simulation computed, trial by trial."""
    digest = hashlib.sha256()
    for result in results:
        summary = result.summary
        digest.update(json.dumps(
            [
                summary.digests, summary.end_time, summary.deliveries,
                asdict(summary.network), summary.storage_ops,
            ],
            sort_keys=True,
        ).encode("utf-8"))
    return digest.hexdigest()


def sim_metrics(results: Sequence[TrialResult]) -> Dict[str, float]:
    """The simulated end-to-end statistics, summed over the trial list."""
    summaries = [result.summary for result in results]
    recoveries = [d for s in summaries for d in s.recovery_durations()]
    return {
        "sim_recovery_ms": 1e3 * statistics.fmean(recoveries) if recoveries else 0.0,
        "sim_blocked_ms": 1e3 * sum(s.total_blocked_time for s in summaries),
        "sim_recovery_msgs": sum(s.recovery_messages() for s in summaries),
        "sim_storage_stall_ms": 1e3 * sum(
            ops["sync_stall"] for s in summaries for ops in s.storage_ops.values()
        ),
        "sim_wire_kb": sum(s.network.total_bytes() for s in summaries) / 1024,
    }


# ----------------------------------------------------------------------
# per-layer metrics from one traced rep
# ----------------------------------------------------------------------
_NO_SPANS = spans.EntryTotals(0, 0, 0.0, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    rep: Rep,
    totals: Dict[spans.Entry, spans.EntryTotals],
    cost: spans.ShimCost,
    trial_cpu_ms: Sequence[float],
) -> Dict[str, float]:
    """Every per-layer metric: self CPU from the spans, counts from the
    ``RunResult``\\ s (or from span counts where no result carries them).

    Span seconds are wall; the rep's CPU/wall ratio turns them into CPU
    seconds (preemption lands on layers in proportion to their time)."""
    cpu_per_wall = rep.cpu_s / rep.wall_s
    self_s = {
        layer: seconds * cpu_per_wall
        for layer, seconds in spans.layer_self_seconds(totals, cost).items()
    }
    total_s = sum(self_s.values())
    summaries = [result.summary for result in rep.results]

    def inclusive_ms_per_trial(layer: str, name: str) -> float:
        total = totals.get(spans.Entry(layer, name), _NO_SPANS)
        return 1e3 * total.inclusive_s * cpu_per_wall / rep.trials

    def storage(key: str) -> float:
        return sum(ops[key] for s in summaries for ops in s.storage_ops.values())

    def registry(name: str) -> float:
        return sum(s.extra["metrics"][name]["value"] for s in summaries)

    events = sum(s.extra["events_processed"] for s in summaries)
    msgs = sum(s.network.total_messages() for s in summaries)
    retransmits = sum(s.network.retransmits for s in summaries)
    app_msgs = sum(s.network.of_kind(MessageKind.APPLICATION)[0] for s in summaries)
    deliveries = sum(s.total_deliveries for s in summaries)
    storage_ops = storage("reads") + storage("writes")
    oracle_s = cpu_per_wall * spans.layer_self_seconds(
        {e: t for e, t in totals.items() if e.name.startswith("ConsistencyOracle.")}, cost
    )["core"]
    sanitizer = [s.extra["sanitizer"] for s in summaries if "sanitizer" in s.extra]
    ledgers = [s.extra["cost"] for s in summaries if "cost" in s.extra]

    metrics = {
        f"{layer}.self_cpu_share": _ratio(self_s[layer], total_s)
        for layer in spans.LAYERS if layer != "bench"
    }
    metrics.update({
        "sim.events": events,
        "sim.events_per_cpu_s": _ratio(events, total_s),
        "sim.compactions": sum(s.extra["kernel"]["compactions"] for s in summaries),
        "sim.pool_reuse_ratio": _ratio(
            sum(s.extra["kernel"]["pool_reuses"] for s in summaries), events),
        "net.self_us_per_msg": _ratio(1e6 * self_s["net"], msgs + retransmits),
        "net.msgs": msgs,
        "net.drop_ratio": _ratio(sum(s.network.dropped for s in summaries), msgs + retransmits),
        "transport.retransmits": retransmits,
        "transport.goodput_ratio": _ratio(
            sum(s.final_progress for s in summaries), msgs + retransmits),
        "storage.self_us_per_op": _ratio(1e6 * self_s["storage"], storage_ops),
        "storage.ops": storage_ops,
        "storage.bytes_written": storage("bytes_written"),
        "storage.bytes_read": storage("bytes_read"),
        "storage.batch_fill": _ratio(storage("batched_appends"), storage("batch_flushes")),
        "storage.retries": storage("faults_injected"),
        "protocols.self_us_per_delivery": _ratio(1e6 * self_s["protocols"], deliveries),
        "protocols.piggyback_dets_per_msg": _ratio(
            sum(s.extra["piggyback_determinants"] for s in summaries), app_msgs),
        "recovery.episodes": registry("recovery.episodes"),
        "recovery.gather_restarts": registry("recovery.gather_restarts"),
        "recovery.stale_epoch_drops": registry("recovery.stale_epoch_drops"),
        "core.oracle_cpu_share": _ratio(oracle_s, total_s),
        "core.build_ms_per_trial": inclusive_ms_per_trial("core", "System.__init__"),
        "core.summarize_ms_per_trial": inclusive_ms_per_trial("core", "System.summarize"),
        "trace.records": sum(sum(s.extra["trace_counters"].values()) for s in summaries),
        "sanitizer.events_checked": sum(report["events_seen"] for report in sanitizer),
        "sanitizer.violations": sum(len(report["violations"]) for report in sanitizer),
        "obs.charges": sum(
            total.calls for entry, total in totals.items()
            if entry.name.startswith("CostLedger.charge_")),
        "obs.conserved": float(all(ledger["conserved"] for ledger in ledgers)),
        "gc.collections": totals.get(spans.Entry("gc", "collect"), _NO_SPANS).calls,
        "runner.materialize_ms_per_trial": inclusive_ms_per_trial(
            "runner", "TrialSpec.materialize"),
        "runner.trial_cpu_ms_p50": _percentile(trial_cpu_ms, 0.50),
        "runner.trial_cpu_ms_p95": _percentile(trial_cpu_ms, 0.95),
        "bench.unattributed_share": _ratio(self_s["bench"], total_s),
    })
    return metrics


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 on no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def _gate(reps: Sequence[Rep]) -> Dict[str, Any]:
    """Correctness and determinism over every rep made, and the simulated
    end-to-end statistics (one fingerprint = one set of them)."""
    fingerprints = sorted({rep.fingerprint for rep in reps})
    failures = sorted({line for rep in reps for line in rep.failures})
    if len(fingerprints) > 1:
        failures.append(f"sim_fingerprint differs between reps: {fingerprints}")
    wall_over_cpu = _ratio(sum(r.wall_s for r in reps), sum(r.cpu_s for r in reps))
    return {
        "attempted": sum(rep.trials for rep in reps),
        "failed": sum(rep.failed_trials for rep in reps),
        "failures": failures,
        "sim_fingerprint": fingerprints[0],
        "wall_over_cpu": wall_over_cpu,
        "noisy": wall_over_cpu > NOISY_WALL_OVER_CPU,
        "end_to_end": {
            name: summarize([value], END_TO_END[name].unit)
            for name, value in reps[-1].sim.items()
        },
    }


def run_untraced(workload: Workload, seed: int, scale: float, seconds: float) -> Dict[str, Any]:
    """1 warm-up rep, then timed reps for ``seconds`` (at least MIN_REPS)."""
    deadline = time.perf_counter() + seconds
    reps = [Rep(workload, seed, scale), Rep(workload, seed, scale)]
    # Read at a fixed rep count, the second rep running over the first
    # one's garbage: later the high-water mark steps up by up to 10 % at
    # seed-dependent reps (collector timing), and how many reps fit in
    # ``seconds`` depends on the host's speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(reps) <= MIN_REPS or time.perf_counter() < deadline:
        reps.append(Rep(workload, seed, scale))
    cpu_s = [rep.cpu_s for rep in reps[1:]]
    out = _gate(reps)
    out["end_to_end"]["trial_cpu_s"] = {
        **summarize(cpu_s, "s", value=fastest_quarter_mean(cpu_s)), "samples": cpu_s,
    }
    out["end_to_end"]["peak_rss_mb"] = summarize([peak_rss_mb], "MiB")
    return out


def run_traced(
    workload: Workload, seed: int, scale: float, seconds: float, spans_out: Optional[str]
) -> Dict[str, Any]:
    """1 warm-up rep, then untraced/traced rep pairs for ``seconds``.

    Each traced rep gets a fresh :class:`spans.Tracer`, installed before
    the rep builds its first ``System`` and removed right after it.  The
    layer metrics come from the fastest traced rep (the one the host
    disturbed least), the overhead ratio from all pairs."""
    deadline = time.perf_counter() + seconds
    cost = spans.shim_cost()
    reps = [Rep(workload, seed, scale)]
    plain: List[Rep] = []
    traced: List[Rep] = []
    best: Optional[Tuple[Rep, spans.Tracer]] = None
    trial_cpu_ms: List[float] = []  # one sample per trial of every traced rep
    while best is None or time.perf_counter() < deadline:
        plain.append(Rep(workload, seed, scale))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(Rep(workload, seed, scale, tracer.run_root, keep_results=True))
        finally:
            tracer.uninstall()
        cpu_ms_per_wall_s = 1e3 * traced[-1].cpu_s / traced[-1].wall_s
        trial_cpu_ms += [
            seconds * cpu_ms_per_wall_s
            for seconds in tracer.durations(spans.Entry("runner", "run_trial"))
        ]
        if best is not None and best[0].cpu_s <= traced[-1].cpu_s:
            traced[-1].results = []
        else:
            if best is not None:
                best[0].results = []
            best = (traced[-1], tracer)
    rep, tracer = best
    totals = tracer.aggregate()
    if spans_out:
        tracer.write(spans_out)
    out = _gate(reps + plain + traced)
    metrics = layer_metrics(rep, totals, cost, trial_cpu_ms)
    metrics["bench.trace_overhead_ratio"] = _ratio(
        fastest_quarter_mean([r.cpu_s for r in traced]),
        fastest_quarter_mean([r.cpu_s for r in plain]),
    )
    metrics["bench.wall_over_cpu"] = out["wall_over_cpu"]
    out["per_layer"] = {name: metrics[name] for name in PER_LAYER}
    out["spans"] = {
        "count": len(tracer.start),
        "pairs": len(traced),
        "traced_wall_s": rep.wall_s,
        "raw_self_sum_s": sum(spans.layer_self_seconds(totals).values()),
        "net_self_sum_s": sum(spans.layer_self_seconds(totals, cost).values()),
        "shim_inside_us": 1e6 * cost.inside_s,
        "shim_outside_us": 1e6 * cost.outside_s,
    }
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; see ``run.py`` for the options."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    # set-up a user pays before the first trial: interpreter start, the
    # imports above, config generation and one System build
    System(workload.specs(args.seed, args.scale)[0].materialize())
    out: Dict[str, Any] = {"setup_s": time.process_time()}
    if args.mode == "untraced":
        out.update(run_untraced(workload, args.seed, args.scale, args.seconds))
    elif args.mode == "traced":
        out.update(run_traced(workload, args.seed, args.scale, args.seconds, args.spans_out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
