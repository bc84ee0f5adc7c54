"""Command-line interface: ``python -m repro <command>``.

Five commands cover the common uses:

* ``run``     -- one simulation with chosen protocol/recovery/failures,
                 printed as a run summary (``--sanitize`` runs the
                 online invariant monitor alongside);
* ``compare`` -- the paper's head-to-head (blocking vs non-blocking, or
                 all seven stacks) on an identical scenario;
* ``grid``    -- cartesian product over one or more numeric knobs (n, f,
                 detection delay, storage latency, state size, loss,
                 checkpoint interval, group-commit batch window) x seeds;
* ``report``  -- aggregate reports; ``report cost`` prints per-protocol
                 communication-cost breakdowns (purpose/phase/link),
                 overhead-vs-time curves and flamegraph export;
* ``trace``   -- inspect a saved JSONL trace: filter, summarize, span
                 trees, the recovery critical path, Chrome export.

Every multi-trial command runs its trials through the parallel runner
(:mod:`repro.runner`); ``--jobs 1`` and ``--jobs N`` print identical
tables, the trials just finish sooner.

Examples::

    python -m repro run --protocol fbl --f 2 --recovery nonblocking \\
        --crash 3@0.05 --spans --trace-out run.jsonl
    python -m repro run --protocol manetho --crash 2@0.05 --sanitize
    python -m repro compare --crash 3@0.05 --crash 5@0.06
    python -m repro grid --knob n=4,8,16,32 --crash 1@0.05 --jobs 4
    python -m repro grid --knob n=4,8,16 --knob loss=0.0,0.05 --seeds 3
    python -m repro report cost --all-protocols --json-out cost.json
    python -m repro report cost --crash 3@0.05 --flame-out cost.folded
    python -m repro trace run.jsonl --critical-path
    python -m repro trace run.jsonl --chrome-out run.chrome.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro import SystemConfig, build_system, crash_at
from repro.analysis.report import format_run_summary, format_table
from repro.analysis.stats import summarize
from repro.experiments import default_protocol_params
from repro.protocols import PROTOCOLS
from repro.runner import TrialRunner, TrialSpec, run_results


#: ``--workload`` choices
WORKLOADS = ("uniform", "token_ring", "client_server", "ping_pong", "all_to_all", "shifting")
#: the workload parameter ``--hops`` sets where it is not ``hops``: the
#: length of a client/server run is its requests per client
HOPS_PARAM = {"shifting": "steady_hops", "client_server": "requests"}


def _parse_crash(text: str):
    """``NODE@TIME`` -> CrashPlan (e.g. ``3@0.05``)."""
    try:
        node_text, time_text = text.split("@", 1)
        return crash_at(node=int(node_text), time=float(time_text))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"crash must look like NODE@TIME (e.g. 3@0.05), got {text!r}"
        ) from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=8, help="number of processes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--protocol",
        default="fbl",
        choices=["fbl", "sender_based", "manetho", "pessimistic",
                 "optimistic", "coordinated", "adaptive"],
    )
    parser.add_argument("--f", type=int, default=2,
                        help="failures tolerated (fbl, adaptive)")
    parser.add_argument(
        "--recovery",
        default=None,
        help="recovery algorithm; defaults to the protocol's natural one",
    )
    parser.add_argument(
        "--workload", default="uniform", choices=WORKLOADS,
    )
    parser.add_argument("--hops", type=int, default=40,
                        help="chain length; requests per client for "
                             "client_server, steady_hops for shifting")
    parser.add_argument("--output-every", type=int, default=0,
                        help="emit an output commit every k deliveries")
    parser.add_argument("--crash", type=_parse_crash, action="append", default=[],
                        metavar="NODE@TIME", help="repeatable crash plan")
    parser.add_argument("--detection-delay", type=float, default=3.0)
    parser.add_argument("--state-bytes", type=int, default=1_000_000)
    parser.add_argument("--storage-latency", type=float, default=0.020)
    parser.add_argument("--storage-bandwidth", type=float, default=1e6)
    parser.add_argument("--header-bytes", type=int, default=64,
                        help="fixed per-message wire header size")
    parser.add_argument("--determinant-bytes", type=int, default=32,
                        help="wire size of one piggybacked determinant")
    parser.add_argument(
        "--transport", default=None, choices=["raw", "reliable"],
        help="channel layer; defaults to raw, or reliable when faults are on",
    )
    parser.add_argument("--loss", type=float, default=0.0,
                        help="per-message loss probability")
    parser.add_argument("--dup", type=float, default=0.0,
                        help="per-message duplication probability")
    parser.add_argument("--reorder", type=float, default=0.0,
                        help="per-message reordering probability")
    parser.add_argument("--reorder-delay", type=float, default=0.002,
                        help="max extra delay for reordered messages (s)")
    parser.add_argument("--storage-fail-prob", type=float, default=0.0,
                        help="per-attempt transient storage fault probability")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="take a checkpoint every k deliveries "
                             "(0 = only the initial one)")
    realism = parser.add_argument_group(
        "storage realism",
        "opt-in storage-stack optimisations (repro.core.config."
        "StorageRealismConfig); all off = the seed's flat cost model",
    )
    realism.add_argument(
        "--incremental-checkpoints", action="store_true",
        help="charge delta checkpoints by dirty bytes instead of a full "
             "state_bytes image every time",
    )
    realism.add_argument(
        "--full-checkpoint-every", type=int, default=8,
        help="force a full checkpoint every k-th checkpoint (bounds the "
             "delta chain a restart reads back)",
    )
    realism.add_argument(
        "--dirty-bytes-per-delivery", type=int, default=65_536,
        help="modelled bytes dirtied by one delivery (saturates at "
             "state-bytes)",
    )
    realism.add_argument(
        "--group-commit", action="store_true",
        help="coalesce pending log appends into one stable operation",
    )
    realism.add_argument(
        "--batch-window", type=float, default=0.005,
        help="group-commit flush window in seconds (a grid over the "
             "batch-window knob implies --group-commit)",
    )
    realism.add_argument(
        "--log-compaction", action="store_true",
        help="reclaim checkpoint-covered log entries and superseded "
             "snapshots, with reclaimed-byte accounting",
    )
    adaptive = parser.add_argument_group(
        "adaptive hybrid logging",
        "controller knobs for --protocol adaptive (repro.core.config."
        "AdaptiveConfig); ignored by every other protocol",
    )
    adaptive.add_argument(
        "--adaptive-initial-mode", default="fbl",
        choices=["pessimistic", "fbl", "optimistic"],
        help="logging mode every process starts in",
    )
    adaptive.add_argument(
        "--adaptive-eval-every", type=int, default=16,
        help="controller evaluation cadence, in deliveries",
    )
    adaptive.add_argument(
        "--adaptive-min-dwell", type=int, default=48,
        help="deliveries a process must spend in a mode before the "
             "controller may switch it again",
    )
    adaptive.add_argument(
        "--adaptive-hysteresis", type=float, default=0.9,
        help="switch only when the candidate mode's estimated cost is "
             "below this fraction of the current mode's (1.0 = any "
             "strict improvement)",
    )


#: ``(label, protocol, recovery)`` of every stack ``compare
#: --all-protocols`` and ``report --all-protocols`` run; ``compare``
#: alone runs the first two.  EXPERIMENTS.md's E6 landscape table uses
#: the same labels.
STACKS = [
    ("fbl+nonblocking", "fbl", "nonblocking"),
    ("fbl+blocking", "fbl", "blocking"),
    ("sender_based", "sender_based", "nonblocking"),
    ("manetho", "manetho", "nonblocking"),
    ("pessimistic", "pessimistic", "local"),
    ("optimistic", "optimistic", "optimistic"),
    ("coordinated", "coordinated", "coordinated"),
]


def _recovery(args: argparse.Namespace) -> str:
    """``--recovery``, else the protocol's natural (first supported) one."""
    return args.recovery or PROTOCOLS[args.protocol].supported_recovery[0]


def _repetitions(args: argparse.Namespace, config: SystemConfig, label: str):
    """``--seeds`` trial specs of one config; repetition ``r`` runs at
    seed ``--seed + r * 10_007``."""
    return [
        TrialSpec(config=config, seed=args.seed + rep * 10_007, label=label)
        for rep in range(args.seeds)
    ]


def _config_from_args(args: argparse.Namespace, **overrides: Any) -> SystemConfig:
    protocol = overrides.pop("protocol", args.protocol)
    recovery = overrides.pop("recovery", None) or _recovery(args)
    protocol_params = default_protocol_params(protocol, overrides.get("f", args.f))
    if "f" in protocol_params:
        overrides.pop("f", None)
    adaptive_config = None
    if protocol == "adaptive":
        from repro.core.config import AdaptiveConfig

        adaptive_config = AdaptiveConfig(
            initial_mode=args.adaptive_initial_mode,
            f=protocol_params["f"],
            eval_every=args.adaptive_eval_every,
            min_dwell=args.adaptive_min_dwell,
            hysteresis=args.adaptive_hysteresis,
        )
    workload_params: Dict[str, Any] = {HOPS_PARAM.get(args.workload, "hops"): args.hops}
    if args.workload == "uniform":
        workload_params["fanout"] = 2
        if args.output_every:
            workload_params["output_every"] = args.output_every
    name = overrides.pop("name", f"{protocol}+{recovery}")
    loss = overrides.pop("loss_prob", args.loss)
    faults = None
    if loss or args.dup or args.reorder or args.storage_fail_prob:
        from repro.core.config import FaultConfig

        faults = FaultConfig(
            loss_prob=loss,
            dup_prob=args.dup,
            reorder_prob=args.reorder,
            reorder_delay=args.reorder_delay,
            storage_fail_prob=args.storage_fail_prob,
        )
    transport = args.transport
    if transport is None:
        transport = "reliable" if faults is not None else "raw"
    batch_window = overrides.pop("batch_window", None)
    realism = None
    if (
        args.incremental_checkpoints
        or args.group_commit
        or args.log_compaction
        or batch_window is not None
    ):
        from repro.core.config import StorageRealismConfig

        realism = StorageRealismConfig(
            incremental_checkpoints=args.incremental_checkpoints,
            full_checkpoint_every=args.full_checkpoint_every,
            dirty_bytes_per_delivery=args.dirty_bytes_per_delivery,
            # a batch-window grid point only makes sense with batching on
            group_commit=args.group_commit or batch_window is not None,
            batch_window=(
                batch_window if batch_window is not None else args.batch_window
            ),
            log_compaction=args.log_compaction,
        )
    config = SystemConfig(
        name=name,
        n=overrides.pop("n", args.n),
        seed=args.seed,
        protocol=protocol,
        protocol_params=protocol_params,
        recovery=recovery,
        workload=args.workload,
        workload_params=workload_params,
        crashes=[crash_at(plan.node, plan.at_time) for plan in args.crash],
        detection_delay=overrides.pop("detection_delay", args.detection_delay),
        state_bytes=overrides.pop("state_bytes", args.state_bytes),
        storage_op_latency=overrides.pop("storage_op_latency", args.storage_latency),
        storage_bandwidth=args.storage_bandwidth,
        header_bytes=args.header_bytes,
        determinant_bytes=args.determinant_bytes,
        faults=faults,
        transport=transport,
        storage_realism=realism,
        adaptive=adaptive_config,
        checkpoint_every=overrides.pop("checkpoint_every", args.checkpoint_every),
    )
    if overrides:
        raise ValueError(f"unused overrides: {sorted(overrides)}")
    return config


def _crashed_nodes(config: SystemConfig) -> List[int]:
    return sorted({plan.node for plan in config.crashes})


# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    config = replace(
        _config_from_args(args), spans=args.spans or bool(args.trace_out),
        profile=args.profile, sanitize=args.sanitize, cost_ledger=args.cost,
        timeseries_window=args.timeseries_window, trace_spill_path=args.trace_spill,
        trace_spill_window=args.trace_spill_window,
    )
    system = build_system(config)
    result = system.run()
    print(config.describe())
    print()
    print(format_run_summary(result, crashed=_crashed_nodes(config)))
    if args.timeline:
        from repro.analysis.timeline import render_timeline

        print()
        print(render_timeline(system.trace))
    if args.metrics:
        from repro.analysis.report import format_metrics

        print()
        print(format_metrics(result.extra["metrics"]))
    if args.profile:
        profile = result.extra["profile"]
        print(
            f"  profile: {profile['events_fired']} events in "
            f"{profile['wall_elapsed'] * 1000:.1f} ms host time "
            f"({profile['events_per_sec']:.0f} events/s), "
            f"heap high-water {profile['heap_high_water']}, "
            f"peak RSS {profile['peak_rss_kb'] / 1024:.1f} MB"
        )
    kernel = result.extra["kernel"]
    print(
        f"  kernel: {result.extra['events_processed']} events fired, "
        f"{kernel['live_events']} live / {kernel['pending_events']} queued "
        f"at end, {kernel['compactions']} heap compactions"
    )
    if args.trace_out:
        from repro.analysis.trace_io import dump_trace

        count = dump_trace(system.trace, args.trace_out)
        print(f"  trace: wrote {count} events to {args.trace_out}")
    if args.trace_spill:
        spill = system.trace.spill
        if spill is not None:
            print(
                f"  trace: streamed {len(spill)} events to {args.trace_spill} "
                f"(in-memory window {spill.window})"
            )
    system.close()
    if result.outputs_committed:
        stats = summarize(result.output_latencies())
        print(
            f"  output commits: {result.outputs_committed} "
            f"(p50 {stats.p50 * 1000:.2f} ms, max {stats.maximum * 1000:.1f} ms)"
        )
    exit_code = 0
    if args.cost or args.timeseries_window is not None:
        from repro.analysis.cost import purpose_table

        cost = result.extra["cost"]
        print()
        print(purpose_table(cost, title="cost ledger (by purpose)"))
        print(
            f"  overhead share: {100 * cost['overhead_share']:.1f}%  "
            f"cost-conserved: {'yes' if cost['conserved'] else 'NO'}"
        )
        if not cost["conserved"]:
            exit_code = 1
    if args.sanitize:
        report = result.extra["sanitizer"]
        checks = ", ".join(
            f"{name} x{count}" for name, count in sorted(report["checks"].items())
        )
        print(f"  sanitizer: {report['events_seen']} events checked ({checks})")
        if not report["clean"]:
            print("\nSANITIZER VIOLATIONS:")
            for violation in report["violations"][:10]:
                chain = " <- ".join(
                    f"{link['kind']}#{link['span']}"
                    for link in violation["span_chain"]
                )
                where = f" [{chain}]" if chain else ""
                print(
                    f"  [{violation['invariant']}] t={violation['time']:.6f} "
                    f"node={violation['node']}: {violation['detail']}{where}"
                )
            exit_code = 1
    if not result.consistent:
        print("\nINCONSISTENT RUN -- oracle violations:")
        for violation in result.oracle_violations[:10]:
            print(f"  {violation}")
        exit_code = 1
    return exit_code


def cmd_compare(args: argparse.Namespace) -> int:
    stacks = STACKS if args.all_protocols else STACKS[:2]
    configs = [
        _config_from_args(args, name=label, protocol=protocol, recovery=recovery)
        for label, protocol, recovery in stacks
    ]
    rows = []
    exit_code = 0
    for config, result in zip(configs, run_results(configs)):
        durations = result.recovery_durations()
        rows.append([
            config.name,
            f"{max(durations):.2f}" if durations else "-",
            f"{result.mean_blocked_time(exclude=_crashed_nodes(config)) * 1000:.1f}",
            result.recovery_messages(),
            "yes" if result.consistent else "NO",
        ])
        if not result.consistent:
            exit_code = 1
    print(format_table(
        ["stack", "recovery (s)", "live blocked (ms)", "ctl msgs", "consistent"],
        rows,
        title="same scenario, different recovery machinery",
    ))
    return exit_code


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report cost``: per-protocol cost breakdowns, overhead
    curves and flamegraph export."""
    import json

    from repro.analysis.cost import format_cost_report
    from repro.runner import merge_cost

    stacks = STACKS if args.all_protocols else [
        (f"{args.protocol}+{_recovery(args)}", args.protocol, _recovery(args))
    ]

    exit_code = 0
    flame_lines: List[str] = []
    json_payload: Dict[str, Any] = {}
    for label, protocol, recovery in stacks:
        config = replace(
            _config_from_args(args, name=label, protocol=protocol, recovery=recovery),
            cost_ledger=True, timeseries_window=args.window, spans=bool(args.flame_out),
        )
        # repetitions exercise the runner's dump/merge path: per-trial
        # ledgers fold in spec order, identical at any --jobs
        results = TrialRunner(jobs=args.jobs).run(_repetitions(args, config, label))
        conserved = all(
            trial.summary.extra["cost"]["conserved"] for trial in results
        )
        merged = merge_cost(results)
        if len(results) == 1:
            cost = results[0].summary.extra["cost"]
            timeseries = results[0].summary.extra.get("timeseries")
        else:
            cost = merged.summary()
            timeseries = None
        print(format_cost_report(cost, timeseries, label=label))
        print(f"cost-conserved: {'yes' if conserved else 'NO'}")
        print()
        if not conserved:
            exit_code = 1
        flame_lines.extend(f"{label};{line}" for line in merged.flame_lines())
        json_payload[label] = cost

    if args.flame_out:
        with open(args.flame_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(flame_lines) + "\n")
        print(
            f"flamegraph: wrote {len(flame_lines)} collapsed stacks to "
            f"{args.flame_out} (load in speedscope or flamegraph.pl)"
        )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(json_payload, handle, indent=2, default=str)
        print(f"json: wrote {len(json_payload)} stack summaries to {args.json_out}")
    return exit_code


GRID_KNOBS = {
    "n": ("n", int),
    "f": ("f", int),
    "detection": ("detection_delay", float),
    "storage-latency": ("storage_op_latency", float),
    "state-bytes": ("state_bytes", int),
    "loss": ("loss_prob", float),
    "checkpoint-every": ("checkpoint_every", int),
    "batch-window": ("batch_window", float),
}


def _parse_grid_knob(text: str):
    """``NAME=V1,V2,...`` with NAME from :data:`GRID_KNOBS`."""
    name, _, values_text = text.partition("=")
    if name not in GRID_KNOBS or not values_text:
        raise argparse.ArgumentTypeError(
            f"grid knob must look like NAME=V1,V2 with NAME in "
            f"{sorted(GRID_KNOBS)}, got {text!r}"
        )
    _, caster = GRID_KNOBS[name]
    try:
        return name, [caster(v) for v in values_text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad value in {text!r}: {exc}") from exc


def cmd_grid(args: argparse.Namespace) -> int:
    """Cartesian product over ``--knob`` axes x ``--seeds`` repetitions,
    executed through the parallel runner; one aggregated row per point."""
    import itertools

    from repro.runner import merge_metrics

    knobs = args.knob or []
    if not knobs:
        print("error: grid needs at least one --knob NAME=V1,V2", file=sys.stderr)
        return 2
    specs: List[Any] = []
    labels: List[str] = []
    for combo in itertools.product(*(values for _, values in knobs)):
        overrides = {
            GRID_KNOBS[name][0]: value
            for (name, _), value in zip(knobs, combo)
        }
        label = ",".join(
            f"{name}={value}" for (name, _), value in zip(knobs, combo)
        )
        config = replace(_config_from_args(args, name=label, **overrides), keep_trace_events=False)
        labels.append(label)
        specs.extend(_repetitions(args, config, label))

    results = TrialRunner(jobs=args.jobs).run(specs)
    by_label: Dict[str, List[Any]] = {}
    for trial in results:
        by_label.setdefault(trial.label, []).append(trial.summary)

    rows = []
    exit_code = 0
    for label in labels:
        runs = by_label[label]
        durations = [d for r in runs for d in r.recovery_durations()]
        consistent = all(r.consistent for r in runs)
        rows.append([
            label,
            len(runs),
            f"{max(durations):.2f}" if durations else "-",
            f"{sum(r.total_blocked_time for r in runs) / len(runs):.3f}",
            sum(r.recovery_messages() for r in runs),
            min(r.final_progress for r in runs),
            "yes" if consistent else "NO",
        ])
        if not consistent:
            exit_code = 1
    print(format_table(
        ["point", "runs", "worst recovery (s)", "mean blocked (s)",
         "ctl msgs", "min progress", "consistent"],
        rows,
        title=f"grid over {' x '.join(name for name, _ in knobs)} "
              f"x {args.seeds} seed(s) ({args.protocol} + {_recovery(args)})",
    ))
    merged = merge_metrics(results)
    events_gauge = merged.get("sim.events_processed")
    total_events = int(events_gauge.value) if events_gauge is not None else 0
    print(f"{len(results)} trials, {total_events} simulated events")
    return exit_code


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.trace_io import load_trace
    from repro.sim.spans import recovery_critical_paths, spans_from_trace

    try:
        trace = load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    events = list(trace.events)  # reading the trace builds its events: once
    if args.node is not None:
        events = [e for e in events if e.node == args.node]
    if args.category:
        events = [e for e in events if e.category == args.category]

    did_something = False
    if args.chrome_out:
        from repro.analysis.chrome import dump_chrome_trace

        count = dump_chrome_trace(trace, args.chrome_out)
        print(f"wrote {count} trace events to {args.chrome_out}")
        did_something = True

    if args.critical_path:
        from repro.analysis.report import format_critical_path

        paths = recovery_critical_paths(trace, node=args.node)
        if not paths:
            print("no recovery episodes with spans found "
                  "(was the run recorded with --spans?)")
        for path in paths:
            print(format_critical_path(path))
        did_something = True

    if args.spans:
        from repro.analysis.report import format_span_tree

        spans = spans_from_trace(trace)
        print(format_span_tree(spans, node=args.node))
        did_something = True

    if args.timeline:
        from repro.analysis.timeline import render_timeline

        print(render_timeline(trace))
        did_something = True

    if args.tail:
        for event in events[-args.tail:]:
            print(
                f"{event.time:.6f} [{event.category}.{event.action}] "
                f"node={event.node} {event.details or ''}".rstrip()
            )
        did_something = True

    if args.summary or not did_something:
        counters: Dict[str, int] = {}
        for event in events:
            key = f"{event.category}.{event.action}"
            counters[key] = counters.get(key, 0) + 1
        span_count = sum(1 for e in events if e.category == "span")
        nodes = sorted({e.node for e in events if e.node is not None})
        first = events[0].time if events else 0.0
        last = events[-1].time if events else 0.0
        print(
            f"{len(events)} events, {len(nodes)} nodes, "
            f"virtual time {first:.6f} -> {last:.6f}"
            + (f", {span_count // 2} spans" if span_count else "")
        )
        rows = [[key, counters[key]] for key in sorted(counters)]
        print(format_table(["event", "count"], rows))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rollback-recovery protocol simulator (Elnozahy, PODC 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    _add_common(run_parser)
    run_parser.add_argument(
        "--timeline", action="store_true",
        help="render an ASCII per-node timeline of the run",
    )
    run_parser.add_argument(
        "--spans", action="store_true",
        help="record causal spans (checkpoint rounds, recovery phases, ...)",
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="profile the sim kernel (events/sec, hot handlers, peak RSS)",
    )
    run_parser.add_argument(
        "--metrics", action="store_true",
        help="print the metrics-registry snapshot after the summary",
    )
    run_parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the JSONL trace here (implies --spans); inspect "
             "it later with `repro trace PATH`",
    )
    run_parser.add_argument(
        "--sanitize", action="store_true",
        help="run the online invariant monitor (repro.sanitizer) over "
             "the trace stream; violations fail the run",
    )
    run_parser.add_argument(
        "--cost", action="store_true",
        help="attribute every wire/storage byte to (process, peer, "
             "purpose, phase) accounts and print the breakdown",
    )
    run_parser.add_argument(
        "--timeseries-window", type=float, default=None, metavar="SECONDS",
        help="sample the cost ledger every SECONDS of virtual time "
             "(implies --cost)",
    )
    run_parser.add_argument(
        "--trace-spill", metavar="PATH", default=None,
        help="stream trace events to this JSONL file with a bounded "
             "in-memory window (flat-memory tracing at any horizon); "
             "the file is readable with `repro trace PATH`",
    )
    run_parser.add_argument(
        "--trace-spill-window", type=int, default=10_000, metavar="N",
        help="in-memory window size for --trace-spill (default 10000)",
    )
    run_parser.set_defaults(fn=cmd_run)

    compare_parser = sub.add_parser("compare", help="compare recovery algorithms")
    _add_common(compare_parser)
    compare_parser.add_argument(
        "--all-protocols", action="store_true",
        help="include every protocol family, not just the two recovery algorithms",
    )
    compare_parser.set_defaults(fn=cmd_compare)

    grid_parser = sub.add_parser(
        "grid", help="cartesian sweep over several knobs x seeds, in parallel"
    )
    _add_common(grid_parser)
    grid_parser.add_argument(
        "--knob", type=_parse_grid_knob, action="append", metavar="NAME=V1,V2",
        help=f"repeatable grid axis; NAME in {sorted(GRID_KNOBS)}",
    )
    grid_parser.add_argument(
        "--seeds", type=int, default=1,
        help="repetitions per grid point with derived seeds",
    )
    grid_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $REPRO_JOBS, else usable cpus-1)",
    )
    grid_parser.set_defaults(fn=cmd_grid)

    report_parser = sub.add_parser(
        "report", help="aggregate reports (currently: cost)"
    )
    report_parser.add_argument(
        "what", choices=["cost"],
        help="which report to produce",
    )
    _add_common(report_parser)
    report_parser.add_argument(
        "--all-protocols", action="store_true",
        help="one report per protocol family (the compare stacks)",
    )
    report_parser.add_argument(
        "--window", type=float, default=0.05, metavar="SECONDS",
        help="time-series sample window in virtual seconds (default 0.05)",
    )
    report_parser.add_argument(
        "--seeds", type=int, default=1,
        help="trials per stack with derived seeds; >1 exercises the "
             "runner's ledger merge (identical at any --jobs)",
    )
    report_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $REPRO_JOBS, else usable cpus-1)",
    )
    report_parser.add_argument(
        "--flame-out", metavar="PATH", default=None,
        help="write collapsed-stack flamegraph lines here (implies spans; "
             "load in speedscope or flamegraph.pl)",
    )
    report_parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the per-stack cost summaries as JSON",
    )
    report_parser.set_defaults(fn=cmd_report)

    trace_parser = sub.add_parser(
        "trace", help="inspect a saved JSONL trace (from run --trace-out)"
    )
    trace_parser.add_argument("trace_file", help="JSONL trace path")
    trace_parser.add_argument("--node", type=int, default=None,
                              help="restrict to one node")
    trace_parser.add_argument("--category", default=None,
                              help="restrict to one event category")
    trace_parser.add_argument(
        "--summary", action="store_true",
        help="event-count summary (the default when nothing else is asked)",
    )
    trace_parser.add_argument(
        "--tail", type=int, default=0, metavar="K",
        help="print the last K (filtered) events",
    )
    trace_parser.add_argument(
        "--spans", action="store_true",
        help="print the span tree (requires a run recorded with --spans)",
    )
    trace_parser.add_argument(
        "--timeline", action="store_true",
        help="render the ASCII per-node timeline",
    )
    trace_parser.add_argument(
        "--critical-path", action="store_true",
        help="attribute each recovery episode's duration to components",
    )
    trace_parser.add_argument(
        "--chrome-out", metavar="PATH", default=None,
        help="export Chrome trace-event JSON (open in ui.perfetto.dev)",
    )
    trace_parser.set_defaults(fn=cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
