"""Smoke test of the end-to-end benchmark (collected by ``pytest benchmarks/``).

Runs every workload at ``--scale 0.05`` -- small enough for CI, large
enough that every crash plan fires -- and holds the harness to its own
rules: names, the span arithmetic, shim removal, determinism under
tracing, and the driver's one-line contract.
"""

import gc
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = 0.05
SEED = 1000


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _shimmed_attributes():
    """Every attribute the tracer replaces, with its current value."""
    import repro.runner
    from repro.sim.events import Event

    owners = [(cls, name) for _, cls, names in spans._entry_points() for name in names]
    owners += [
        (cls, name)
        for _, cls in spans._hook_families()
        for name, fn in cls.__dict__.items()
        if callable(fn) and not name.startswith("_")
    ]
    owners += [(Event, "fire"), (repro.runner, "run_trial")]
    return {(owner, name): owner.__dict__[name] for owner, name in owners}


def test_benchmark_json_matches_the_metric_and_workload_tables():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert doc["end_to_end"] == metrics.contract_rows(trace=False)
    assert doc["per_layer"] == metrics.contract_rows(trace=True)
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in doc[key]]
    assert all(NAME.fullmatch(name) for name in names + list(metrics.END_TO_END))
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_traced_and_untraced(name):
    workload = WORKLOADS[name]
    before, gc_hooks = _shimmed_attributes(), list(gc.callbacks)
    traced = worker.run_traced(workload, SEED, SCALE, 0, None)
    after = _shimmed_attributes()
    assert gc.callbacks == gc_hooks
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before), "a shim was left installed"

    assert not traced["failures"] and traced["failed"] == 0
    assert list(traced["per_layer"]) == list(metrics.PER_LAYER)
    # every span's self time is counted once: the layers sum to the rep
    span_stats = traced["spans"]
    assert span_stats["raw_self_sum_s"] == pytest.approx(span_stats["traced_wall_s"], rel=0.01)
    assert span_stats["net_self_sum_s"] <= span_stats["raw_self_sum_s"]
    shares = [v for k, v in traced["per_layer"].items() if k.endswith(".self_cpu_share")]
    unattributed = traced["per_layer"]["bench.unattributed_share"]
    assert sum(shares) + unattributed == pytest.approx(1.0)
    assert traced["per_layer"]["sim.self_cpu_share"] > 0

    untraced = worker.run_untraced(workload, SEED, SCALE, 0)
    assert not untraced["failures"]
    # the shims may not perturb the simulation
    assert untraced["sim_fingerprint"] == traced["sim_fingerprint"]
    reported = set(untraced["end_to_end"]) | {"setup_s", "fail_share"}
    assert reported == set(metrics.END_TO_END)
    assert untraced["end_to_end"]["trial_cpu_s"]["n"] >= worker.MIN_REPS


def test_transport_is_bypassed_on_raw_workloads_only():
    lossy = worker.run_traced(WORKLOADS["lossy_transport"], SEED, SCALE, 0, None)
    steady = worker.run_traced(WORKLOADS["steady_fbl"], SEED, SCALE, 0, None)
    assert lossy["per_layer"]["transport.self_cpu_share"] > 0
    assert lossy["per_layer"]["transport.retransmits"] > 0
    assert steady["per_layer"]["transport.self_cpu_share"] == 0
    # < 1 % at scale 1; here the eight bootstrap checkpoints still show
    assert steady["per_layer"]["storage.self_cpu_share"] < 0.05


def _run_py(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_matches_benchmark_json(trace):
    done = _run_py([
        "--workload", "sweep_fleet", "--seed", "7", "--seconds", "0",
        "--scale", str(SCALE), "--trace", str(trace),
    ])
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in line["metrics"].items()
    }
    if not trace:
        assert all(value["value"] > 0 for value in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_py(
        ["--workload", "steady_fbl", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, script=str(tmp_path / "benchmarks" / "e2e" / "run.py"),
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_verdicts():
    def row(value, low, high, unit="s"):
        return {"unit": unit, "value": value, "q1": low, "q3": high, "min": low, "max": high}

    base = row(1.0, 0.98, 1.02)
    assert run.verdict("trial_cpu_s", base, base) == "within bound"
    assert run.verdict("trial_cpu_s", base, row(0.9, 0.89, 0.92)) == "within bound"
    assert run.verdict("trial_cpu_s", base, row(0.7, 0.69, 0.72)) == "improved"
    assert run.verdict("trial_cpu_s", base, row(0.7, 0.6, 0.99)) == "unresolved"
    assert run.verdict("trial_cpu_s", base, row(1.4, 1.38, 1.42)) == "regressed"
    assert run.verdict("trial_cpu_s", base, row(1.05, 0.9, 1.4)) == "unresolved"
    exact = row(3.5, 3.5, 3.5, "ms")
    assert run.verdict("sim_recovery_ms", exact, exact) == "identical"
    assert run.verdict("sim_recovery_ms", exact, row(3.6, 3.6, 3.6, "ms")) == "regressed"
    nothing = row(0, 0, 0, "ms")
    assert run.verdict("sim_blocked_ms", nothing, nothing) == "identical"
    assert run.verdict("sim_blocked_ms", nothing, row(2.5, 2.5, 2.5, "ms")) == "regressed"
    assert run.verdict("fail_share", row(0, 0, 0), row(0, 0, 0)) == "within bound"
    assert run.verdict("fail_share", row(0, 0, 0), row(0.1, 0.1, 0.1)) == "regressed"
    # setup_s: 40 ms on 100 ms is past 25 % but under the 50 ms floor
    assert run.verdict("setup_s", row(0.10, 0.10, 0.10), row(0.14, 0.14, 0.14)) == "within bound"


def test_compare_reports_a_simulated_statistic_that_leaves_zero(tmp_path, capsys):
    def capture(path, blocked_ms):
        rows = {
            name: {"unit": metric.unit, "value": 1.0, "q1": 1.0, "q3": 1.0, "min": 1.0, "max": 1.0}
            for name, metric in metrics.END_TO_END.items()
        }
        rows["fail_share"]["value"] = 0.0
        rows["sim_blocked_ms"]["value"] = blocked_ms
        host = {"nproc": 2, "python": "3", "loadavg": [0, 0, 0]}
        workloads = {"steady_fbl": {"end_to_end": rows, "sim_fingerprint": "f"}}
        path.write_text(json.dumps(
            {"seed": 1, "scale": 1.0, "host": host, "workloads": workloads}))
        return str(path)

    base = capture(tmp_path / "base.json", 0.0)
    assert run.compare(base, base) == 0
    assert run.compare(base, capture(tmp_path / "new.json", 2.5)) == 1
    blocked = [line for line in capsys.readouterr().out.splitlines() if "sim_blocked_ms" in line]
    assert blocked[0].endswith("identical") and blocked[1].endswith("regressed")
