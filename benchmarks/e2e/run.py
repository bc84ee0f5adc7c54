"""The repo's end-to-end benchmark: six full-stack workloads, one command.

    python benchmarks/e2e/run.py --seed 1000                 # everything, as tables
    python benchmarks/e2e/run.py --seed 1000 --out A.json    # ... and keep a capture
    python benchmarks/e2e/run.py --compare A.json B.json     # two captures, verdicts
    python benchmarks/e2e/run.py --workload steady_fbl --seed 7 --seconds 15 --trace 0

The last form is the one a driver uses: one workload, one kind of run,
and one JSON object on the last line of stdout -- ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

Each workload is measured in fresh subprocesses (``worker.py``): a batch,
closed, single-process, single-thread load, timed in process CPU seconds.
README.md holds the metric, workload and interaction tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.normpath(os.path.join(_HERE, os.pardir, os.pardir))
sys.path.insert(0, _HERE)

from metrics import (  # noqa: E402
    END_TO_END, NOISY_WALL_OVER_CPU, PER_LAYER, contract_rows, fastest_quarter_mean, summarize,
)

WORKLOAD_NAMES = (
    "steady_fbl", "recovery_churn", "lossy_transport",
    "storage_logging", "observed_run", "sweep_fleet",
)
#: measuring time per kind of run when ``--seconds`` is not given; equals
#: ``run_seconds`` in BENCHMARK.json
DEFAULT_SECONDS = 15
#: fresh processes whose set-up is timed for ``setup_s``
SETUP_PROBES = 9
#: a worker that has not answered by then is killed (the driver allows 180 s)
WORKER_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def _worker(workload: str, seed: int, scale: float, seconds: float, mode: str,
            spans_out: Optional[str] = None) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh interpreter; its last line is the result."""
    command = [
        sys.executable, os.path.join(_HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scale", str(scale),
        "--seconds", str(seconds), "--mode", mode,
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure_untraced(workload: str, seed: int, scale: float, seconds: float) -> Dict[str, Any]:
    """End-to-end metrics: the timed reps, plus extra set-up probes."""
    out = _worker(workload, seed, scale, seconds, "untraced")
    setups = [out.pop("setup_s")] + [
        _worker(workload, seed, scale, 0, "setup")["setup_s"]
        for _ in range(SETUP_PROBES - 1)
    ]
    out["end_to_end"]["setup_s"] = summarize(setups, "s", value=fastest_quarter_mean(setups))
    out["end_to_end"]["fail_share"] = summarize([out["failed"] / out["attempted"]], "ratio")
    return out


def measure_traced(workload: str, seed: int, scale: float, seconds: float,
                   spans_out: Optional[str] = None) -> Dict[str, Any]:
    """Per-layer metrics from untraced/traced rep pairs."""
    out = _worker(workload, seed, scale, seconds, "traced", spans_out)
    del out["setup_s"]
    return out


def host_info() -> Dict[str, Any]:
    """Where the numbers were taken (recorded in every capture)."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# the driver's contract: one workload, one kind of run, one JSON line
# ----------------------------------------------------------------------
def contract_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """``correct/attempted/failed/metrics`` as BENCHMARK.json declares them."""
    values = {name: row["value"] for name, row in result["end_to_end"].items()}
    values.update(result.get("per_layer", {}))
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
            for row in contract_rows(trace)
        },
    }


def run_one(args: argparse.Namespace) -> int:
    """Driver mode."""
    workload = args.workload[0]
    if args.trace:
        result = measure_traced(workload, args.seed, args.scale, args.seconds, args.spans_out)
    else:
        result = measure_untraced(workload, args.seed, args.scale, args.seconds)
    for failure in result["failures"]:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    print(f"{workload} sim_fingerprint {result['sim_fingerprint']}")
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 1 if result["failures"] else 0


# ----------------------------------------------------------------------
# the full report
# ----------------------------------------------------------------------
def _print_workload(name: str, capture: Dict[str, Any]) -> None:
    flags = " NOISY (wall/CPU > %.1f)" % NOISY_WALL_OVER_CPU if capture["noisy"] else ""
    print(f"\n== {name}{flags}")
    print(f"   sim_fingerprint {capture['sim_fingerprint']}")
    print(f"   {'end-to-end metric':<22}{'unit':>6}{'value':>14}"
          f"{'median':>14}{'min':>14}{'max':>14}{'n':>4}")
    for metric in END_TO_END:
        row = capture["end_to_end"][metric]
        print(f"   {metric:<22}{row['unit']:>6}{row['value']:>14.6g}{row['median']:>14.6g}"
              f"{row['min']:>14.6g}{row['max']:>14.6g}{row['n']:>4}")
    print(f"   {'per-layer metric (traced rep)':<34}{'unit':>6}{'value':>16}")
    for metric, value in capture["per_layer"].items():
        print(f"   {metric:<34}{PER_LAYER[metric].unit:>6}{value:>16.6g}")
    for failure in capture["failures"]:
        print(f"   FAILED {failure}")


def run_all(args: argparse.Namespace) -> int:
    """Every (or the named) workload, both kinds of run, as tables."""
    capture: Dict[str, Any] = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "host": host_info(), "workloads": {},
    }
    ok = True
    for name in args.workload or WORKLOAD_NAMES:
        untraced = measure_untraced(name, args.seed, args.scale, args.seconds)
        traced = measure_traced(name, args.seed, args.scale, args.seconds)
        failures = untraced["failures"] + traced["failures"]
        if untraced["sim_fingerprint"] != traced["sim_fingerprint"]:
            failures.append(
                "sim_fingerprint differs between the untraced run "
                f"({untraced['sim_fingerprint']}) and the traced run "
                f"({traced['sim_fingerprint']})"
            )
        capture["workloads"][name] = {
            "end_to_end": untraced["end_to_end"],
            "per_layer": traced["per_layer"],
            "spans": traced["spans"],
            "sim_fingerprint": untraced["sim_fingerprint"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failures": failures,
            "noisy": untraced["noisy"] or traced["noisy"],
        }
        _print_workload(name, capture["workloads"][name])
        ok = ok and not failures
    capture["host"]["loadavg_end"] = list(os.getloadavg())
    print(f"\nhost {json.dumps(capture['host'])}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(capture, handle, indent=1)
        print(f"capture written to {args.out}")
    print("RESULT " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# comparing two captures
# ----------------------------------------------------------------------
def verdict(name: str, base: Dict[str, Any], new: Dict[str, Any]) -> str:
    """improved / within bound / regressed / unresolved, lower being better.

    A simulated statistic is ``identical`` or it moved.  A timing is
    ``regressed`` when it is worse by more than its bound, ``improved``
    when it is better by more than its bound *and* every new run beats
    every base run, and ``unresolved`` rather than unchanged when either
    side's own runs (their inter-quartile range: the host only adds time,
    so maxima say nothing) spread wider than the bound."""
    metric = END_TO_END[name]
    delta = new["value"] - base["value"]
    if metric.bound is None:
        if abs(delta) <= 1e-9 * abs(base["value"]):
            return "identical"
        return "regressed" if delta > 0 else "improved"
    slack = max(metric.bound * base["value"], metric.floor)
    if delta > slack:
        return "regressed"
    if delta < -slack and new["max"] < base["min"]:
        return "improved"
    if delta < -slack or max(base["q3"] - base["q1"], new["q3"] - new["q1"]) > slack:
        return "unresolved"
    return "within bound"


def compare(base_path: str, new_path: str) -> int:
    """Print base, new, ratio and verdict per workload x end-to-end metric."""
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    for side, capture in (("base", base), ("new", new)):
        host = capture["host"]
        print(f"{side}: seed={capture['seed']} scale={capture['scale']} "
              f"nproc={host['nproc']} python={host['python']} loadavg={host['loadavg']}")
    regressed = False
    print(f"{'workload':<18}{'metric':<22}{'base':>14}{'new':>14}{'new/base':>10}  verdict")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        before, after = base["workloads"][name], new["workloads"][name]
        for metric in END_TO_END:
            old, cur = before["end_to_end"][metric], after["end_to_end"][metric]
            ratio = f"{cur['value'] / old['value']:.3f}" if old["value"] else "-"
            result = verdict(metric, old, cur)
            regressed = regressed or result == "regressed"
            print(f"{name:<18}{metric:<22}{old['value']:>14.6g}{cur['value']:>14.6g}"
                  f"{ratio:>10}  {result}")
        same = before["sim_fingerprint"] == after["sim_fingerprint"]
        print(f"{name:<18}{'sim_fingerprint':<22}{'':>38}  "
              f"{'identical' if same else 'differs'}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse the command line and dispatch."""
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="measure only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=1000,
                        help="seeds config generation only: trial i runs at seed + i")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per kind of run and workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics; "
                             "needs exactly one --workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (for the smoke test only; "
                             "recorded numbers are always scale 1)")
    parser.add_argument("--out", help="write the full capture as JSON")
    parser.add_argument("--spans-out", help="with --trace 1: dump the raw spans as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two captures written with --out")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(_ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {_ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
