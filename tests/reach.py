"""Reach collector: which functions of ``src/repro`` a set of runs enters.

A function-level ``sys.settrace`` hook records the code object of every
``call`` event (no line events, so a traced run is a few times slower,
not tens).  Each traced process writes ``reach-<pid>.json`` into the
working directory when it exits; the report reads any number of dumps
and prints, per file, the functions that no dump ever entered.

Collect::

    # tier-1 or the benchmarks, as a pytest plugin
    PYTHONPATH=src python -m pytest -q -p tests.reach
    PYTHONPATH=src python -m pytest -q -p tests.reach benchmarks/
    # a script or a CLI command line
    PYTHONPATH=src python tests/reach.py --run examples/quickstart.py
    PYTHONPATH=src python tests/reach.py --run -m repro run --protocol fbl --crash 2@0.03

Report::

    python tests/reach.py reach-*.json

Product-only reach, collected and reported in one command::

    PYTHONPATH=src python tests/reach.py --product

runs, each under the collector in a temporary directory, what a user or
CI runs: every documented ``python -m repro`` line (the set
``tests/test_docs_commands.py`` parses), ``examples/*.py``,
``benchmarks/paper_tables.py`` (EXPERIMENTS.md is restored after it),
the six e2e workloads traced and untraced (``worker.py`` directly:
``run.py`` starts it with ``subprocess``, which the tracer cannot
follow), and the chaos sweep under both profiles at 20 seeds with the
sanitizer on.  A run that exits non-zero is named above the report;
the two documented ``repro trace chaos-...`` lines always are, because
they read a chaos failure artifact that a passing sweep never writes.
The whole collection took 5 min on a 2-core host.

Worker processes started by ``fork`` (the default ``multiprocessing``
start method on Linux, so every ``TrialRunner(jobs>1)`` pool) are
covered: ``os.register_at_fork`` re-installs the hook in the child, and
a ``multiprocessing`` after-fork hook registers the dump as a
``multiprocessing.util.Finalize``.  Workers started by ``spawn`` or
``forkserver`` are not traced.

Under the collector, three or four of the six cases of
``test_workload_traced_and_untraced`` in ``benchmarks/e2e`` fail their
CPU-attribution check (the layers' span self times must sum to the
rep's wall time): that harness times itself with hooks this tracer
disturbs.  The failure is expected and does not point to a bug in the
simulator.

On a 2-core host, tier-1 (1,124 tests) took 5 min 2 s under the
collector, against 1 min 48 s without it.
"""

from __future__ import annotations

import ast
import atexit
import glob
import json
import os
import shlex
import subprocess
import sys
import tempfile
import threading
from multiprocessing import util
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

_seen: Set[object] = set()
_started = False


def _tracer(frame, event, arg, _record=_seen.add):
    # ``_record`` is bound here because the hook still runs while the
    # interpreter shuts down, after module globals are cleared
    if event == "call":
        _record(frame.f_code)
    return None  # no local (line) tracing


def _dump() -> None:
    """Write ``reach-<pid>.json``: the entered ``src/repro`` functions."""
    entered: Dict[str, List[Tuple[int, str]]] = {}
    for code in list(_seen):
        path = os.path.abspath(code.co_filename)
        if path.startswith(SRC + os.sep):
            rel = os.path.relpath(path, ROOT)
            entered.setdefault(rel, []).append((code.co_firstlineno, code.co_name))
    out = os.path.join(os.getcwd(), f"reach-{os.getpid()}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({k: sorted(set(v)) for k, v in entered.items()}, handle)


def _after_fork_in_child() -> None:
    _seen.clear()  # the parent's dump already holds what it entered
    sys.settrace(_tracer)


def start() -> None:
    """Trace every call in this process (and forked children) from now on."""
    global _started
    if _started:
        return
    _started = True
    sys.settrace(_tracer)
    threading.settrace(_tracer)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    atexit.register(_dump)
    # a multiprocessing worker leaves through os._exit, which skips
    # atexit, and clears the finalizers it inherits before running its
    # after-fork hooks: register the dump from one of those
    util.register_after_fork(
        _dump, lambda _: util.Finalize(None, _dump, exitpriority=100)
    )


def pytest_configure(config) -> None:
    """Plugin entry point (``pytest -p tests.reach``)."""
    start()


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _functions(path: str) -> List[Tuple[int, str, int]]:
    """``(first line, name, line count)`` of every def in ``path``; the
    first line is the first decorator's, as in ``co_firstlineno``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found.append((first, node.name, node.end_lineno - first + 1))
    return sorted(found)


def report(dumps: List[str]) -> int:
    """Print the never-entered functions of every ``src/repro`` file."""
    entered: Set[Tuple[str, int, str]] = set()
    for dump in dumps:
        with open(dump, encoding="utf-8") as handle:
            for rel, pairs in json.load(handle).items():
                entered.update((rel, line, name) for line, name in pairs)
    total_fns = total_lines = dead_fns = dead_lines = 0
    for dirpath, _, files in sorted(os.walk(SRC)):
        for filename in sorted(f for f in files if f.endswith(".py")):
            rel = os.path.relpath(os.path.join(dirpath, filename), ROOT)
            dead = []
            for line, name, length in _functions(os.path.join(ROOT, rel)):
                total_fns += 1
                total_lines += length
                if (rel, line, name) not in entered:
                    dead.append((line, name, length))
            if dead:
                print(rel)
                for line, name, length in dead:
                    print(f"  {line:5d}  {name}  ({length} lines)")
            dead_fns += len(dead)
            dead_lines += sum(length for _, _, length in dead)
    print(
        f"{dead_fns} of {total_fns} functions ({dead_lines} of {total_lines} "
        f"function lines) never entered, over {len(dumps)} dump(s)"
    )
    return 0


# ----------------------------------------------------------------------
# product-only collection
# ----------------------------------------------------------------------
def _product_targets() -> List[Tuple[List[str], Dict[str, str]]]:
    """``(--run target, extra environment)`` of every product entry point."""
    from test_docs_commands import COMMANDS, PREFIX

    e2e = os.path.join(ROOT, "benchmarks", "e2e")
    sys.path.insert(0, e2e)
    from workloads import WORKLOADS

    targets = []
    for _, command in COMMANDS:
        argv = shlex.split(command, comments=True)[len(shlex.split(PREFIX)):]
        targets.append((["-m", "repro"] + argv, {}))
    for example in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        targets.append(([example], {}))
    targets.append(([os.path.join(ROOT, "benchmarks", "paper_tables.py")], {}))
    worker = os.path.join(e2e, "worker.py")
    for workload in sorted(WORKLOADS):
        for mode in ("untraced", "traced"):
            targets.append(([worker, "--workload", workload, "--seed", "1000",
                             "--seconds", "0", "--mode", mode], {}))
    chaos = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
             os.path.join(ROOT, "tests", "test_chaos.py"), "-k", "no_violations"]
    for profile in ("", "churn"):
        targets.append((chaos, {"CHAOS_PROFILE": profile, "CHAOS_SANITIZE": "1",
                                "CHAOS_RUNS_PER_COMBO": "20"}))
    return targets


def product() -> int:
    """Collect reach over :func:`_product_targets` and print the report."""
    experiments = os.path.join(ROOT, "EXPERIMENTS.md")
    with open(experiments, "rb") as handle:
        kept = handle.read()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, os.path.join(ROOT, "tests")])
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        try:
            for target, extra in _product_targets():
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--run"] + target,
                    cwd=workdir, env=dict(env, **extra),
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                if done.returncode != 0:
                    failed.append(" ".join(target))
        finally:
            with open(experiments, "wb") as handle:
                handle.write(kept)
        for target in failed:
            print(f"exited non-zero: {target}")
        return report(sorted(glob.glob(os.path.join(workdir, "reach-*.json"))))


def main(argv: List[str]) -> int:
    """``--run TARGET...`` collects, ``--product`` collects and reports
    the product's reach; otherwise report over the dumps."""
    if argv[:1] == ["--run"]:
        import runpy

        target = argv[1:]
        start()
        if target[0] == "-m":
            sys.argv = target[1:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = target
            runpy.run_path(target[0], run_name="__main__")
        return 0
    if argv == ["--product"]:
        return product()
    if not argv:
        print(__doc__)
        return 2
    return report(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
