"""Smoke test of ``benchmarks/profile_rep.py``: the function-level
profile of one benchmark rep (the step after the layer split)."""

import os
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
SCRIPT = os.path.join(ROOT, "benchmarks", "profile_rep.py")


def profile(*args):
    return subprocess.run(
        [sys.executable, SCRIPT, *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


def test_profiles_one_rep_and_names_the_checkpoint_encoder():
    done = profile(
        "storage_logging", "--scale", "0.05", "--seed", "7",
        "--sort", "cumtime", "--filter", "marshal|checkpoint", "--top", "50",
    )
    assert done.returncode == 0, done.stderr
    assert "Ordered by: cumulative time" in done.stdout
    rows = [line for line in done.stdout.splitlines() if "{built-in method marshal.dumps}" in line]
    assert len(rows) == 1, done.stdout
    assert int(rows[0].split()[0]) > 0  # ncalls: checkpoints were taken
    assert "storage/checkpoint.py" in done.stdout
    # the denominator that makes two profiles comparable, always printed
    header = done.stdout.splitlines()[:2]
    assert header[0].startswith("wire messages: ") and int(header[0].split()[-1]) > 0
    assert header[1].startswith("µs of profiled time per wire message: ")
    assert float(header[1].split()[-1]) > 0


def test_rejects_an_unknown_workload():
    done = profile("no_such_workload")
    assert done.returncode == 2
    assert "invalid choice" in done.stderr
