"""Serial/parallel determinism parity for :mod:`repro.runner`.

The runner's headline guarantee: a spec list run at ``jobs=1`` (fully
in-process, no multiprocessing) and at ``jobs=N`` produces identical
per-trial :class:`RunResult` summaries, identical mergeable metrics,
and identical aggregate reports -- parallelism never leaks into virtual
time.  ``wall_s`` is the only field allowed to differ (and is excluded
from :class:`TrialResult` equality).

These tests run real systems (crashes, lossy networks, chaos draws), so
any scheduling- or pickling-induced nondeterminism shows up as a loud
table diff, not a flaky benchmark.
"""

import dataclasses
import io
import sys

import pytest
from helpers import fresh_interpreter, small_config

from repro.cli import main as cli_main
from repro.core.config import FaultConfig
from repro.core.system import run_config
from repro.procs.failure import LinkFaultPlan, crash_at
from repro.runner import (
    TrialRunner,
    TrialSpec,
    default_jobs,
    merge_metrics,
    merge_trace_counters,
    run_results,
)

PARALLEL_JOBS = 4


def _specs():
    """A mixed fleet: perfect and lossy networks, crashes, two stacks."""
    specs = []
    for seed in range(3):
        specs.append(TrialSpec(
            config=small_config(
                protocol="fbl", recovery="nonblocking", seed=seed,
                crashes=[crash_at(node=1, time=0.05)],
            ),
            label=f"nb-{seed}",
        ))
        specs.append(TrialSpec(
            config=small_config(
                protocol="fbl", recovery="blocking", seed=seed,
                crashes=[crash_at(node=2, time=0.06)],
            ),
            label=f"blk-{seed}",
        ))
    lossy = small_config(
        protocol="fbl", recovery="nonblocking", seed=7,
        crashes=[crash_at(node=3, time=0.05)],
        faults=FaultConfig(loss_prob=0.1),
        transport="reliable",
        transport_params={"max_retries": 30},
    )
    specs.append(TrialSpec(config=lossy, label="lossy"))
    return specs


def test_serial_and_parallel_results_are_identical():
    specs = _specs()
    serial = TrialRunner(jobs=1).run(specs)
    parallel = TrialRunner(jobs=PARALLEL_JOBS).run(specs)

    assert [t.index for t in serial] == list(range(len(specs)))
    assert [t.index for t in parallel] == list(range(len(specs)))
    assert [t.label for t in serial] == [t.label for t in parallel]
    # RunResult is a value-compared dataclass: this covers end times,
    # deliveries, episodes, network ledgers, digests, and extra{} whole
    assert [t.summary for t in serial] == [t.summary for t in parallel]
    assert [t.metrics for t in serial] == [t.metrics for t in parallel]
    assert [t.trace_counters for t in serial] == [
        t.trace_counters for t in parallel
    ]
    # TrialResult equality itself ignores wall_s
    assert serial == parallel


def test_merged_aggregates_are_identical_and_ordered():
    specs = _specs()
    serial = TrialRunner(jobs=1).run(specs)
    parallel = TrialRunner(jobs=PARALLEL_JOBS).run(specs)

    merged_serial = merge_metrics(serial).snapshot()
    merged_parallel = merge_metrics(parallel).snapshot()
    assert merged_serial == merged_parallel

    counters_serial = merge_trace_counters(serial)
    counters_parallel = merge_trace_counters(parallel)
    assert counters_serial == counters_parallel
    # byte-identical includes dict key order
    assert list(counters_serial) == list(counters_parallel)


def test_rerunning_frozen_specs_does_not_contaminate():
    """A run keeps its failure plans' trigger state to itself: running the
    same spec list twice (the parity pattern) gives the same results."""
    specs = _specs()
    first = TrialRunner(jobs=1).run(specs)
    second = TrialRunner(jobs=1).run(specs)
    assert first == second
    # and the crash actually fired both times
    assert all(t.summary.episodes for t in first if t.label.startswith("nb"))


#: the ``repro.protocols`` / ``repro.recovery`` modules loaded (an expression)
_STACK_MODULES = (
    "sorted(m.split('.', 1)[1] for m in sys.modules"
    " if m.startswith(('repro.protocols.', 'repro.recovery.')))"
)

#: loaded by every System, whatever its stack
_EVERY_STACK = ["protocols.base", "recovery.base", "recovery.sequencer"]

#: (protocol, its first supported recovery, the stack modules one System
#: of them loads besides ``_EVERY_STACK``: the protocol's module, its
#: in-package bases and the one recovery manager)
_STACKS = [
    ("fbl", "nonblocking", ["protocols.fbl", "recovery.nonblocking"]),
    ("sender_based", "nonblocking",
     ["protocols.fbl", "protocols.sender_based", "recovery.nonblocking"]),
    ("manetho", "nonblocking", ["protocols.fbl", "protocols.manetho", "recovery.nonblocking"]),
    ("pessimistic", "local", ["protocols.pessimistic", "recovery.local"]),
    ("optimistic", "optimistic", ["protocols.optimistic", "recovery.optimistic_mgr"]),
    ("coordinated", "coordinated", ["protocols.coordinated", "recovery.coordinated_mgr"]),
    ("adaptive", "nonblocking",
     ["protocols.adaptive", "protocols.fbl", "protocols.pessimistic", "recovery.nonblocking"]),
]


def test_serial_runner_never_imports_multiprocessing():
    """``jobs=1`` runs inline and must not pay for the process pool's
    imports (multiprocessing, logging, socket, selectors: ~30 ms of
    every process that imports ``repro.runner``)."""
    script = (
        "import sys\n"
        "from repro import SystemConfig\n"
        "from repro.runner import TrialRunner, TrialSpec\n"
        "config = SystemConfig(n=3, workload_params={'hops': 3})\n"
        "trials = TrialRunner(jobs=1).run([TrialSpec(config=config)] * 2)\n"
        "assert len(trials) == 2 and all(t.summary.consistent for t in trials)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process')\n"
        "       if m in sys.modules])\n"
    )
    assert fresh_interpreter(script) == []


@pytest.mark.parametrize(
    "protocol, recovery, modules", _STACKS, ids=[stack[0] for stack in _STACKS]
)
def test_a_serial_run_loads_only_its_stack(protocol, recovery, modules):
    """A run does not pay for a stack it does not run: the registries
    import a module on lookup."""
    script = (
        "import sys\n"
        "from repro import SystemConfig\n"
        "from repro.runner import TrialRunner, TrialSpec\n"
        f"config = SystemConfig(n=3, protocol={protocol!r}, recovery={recovery!r},\n"
        "                      workload_params={'hops': 3})\n"
        "trials = TrialRunner(jobs=1).run([TrialSpec(config=config)] * 2)\n"
        "assert len(trials) == 2 and all(t.summary.consistent for t in trials)\n"
        f"print({_STACK_MODULES})\n"
    )
    assert fresh_interpreter(script) == sorted(_EVERY_STACK + modules)


def test_importing_the_cli_loads_no_stack():
    script = f"import sys\nimport repro.cli\nprint({_STACK_MODULES})\n"
    assert fresh_interpreter(script) == ["recovery.sequencer"]


def test_a_bad_config_fails_before_any_trial_runs(monkeypatch):
    import repro.runner

    ran = []
    monkeypatch.setattr(
        repro.runner, "run_trial", lambda spec, index=0: ran.append(index)
    )
    specs = _specs() + [TrialSpec(small_config(protocol="pessimistic", recovery="nonblocking"))]
    with pytest.raises(ValueError, match="supports recovery"):
        TrialRunner(jobs=1).run(specs)
    assert ran == []


def test_chunking_does_not_change_results():
    specs = _specs()
    baseline = TrialRunner(jobs=1).run(specs)
    for chunk_size in (1, 2, len(specs)):
        chunked = TrialRunner(jobs=2, chunk_size=chunk_size).run(specs)
        assert chunked == baseline, f"chunk_size={chunk_size} broke parity"


def test_run_results_helper():
    configs = [
        small_config(protocol="fbl", recovery="nonblocking", seed=s,
                     crashes=[crash_at(node=1, time=0.05)])
        for s in range(2)
    ]
    trials = TrialRunner(jobs=1).run([TrialSpec(config=c) for c in configs])
    assert run_results(configs, jobs=2) == [t.summary for t in trials]


def test_seed_override_reseeds_the_trial():
    config = small_config(protocol="fbl", recovery="nonblocking", seed=0)
    base, reseeded = TrialRunner(jobs=1).run([
        TrialSpec(config=config),
        TrialSpec(config=config, seed=1234),
    ])
    assert base.summary.digests != reseeded.summary.digests


def test_repetitions_with_crashes_rearm_plans():
    config = small_config(hops=15, crashes=[crash_at(node=1, time=0.02)])
    trials = TrialRunner(jobs=1).run([
        TrialSpec(config=config, seed=seed) for seed in (0, 10_007)
    ])
    for trial in trials:
        assert len(trial.summary.recovery_durations()) == 1
        assert trial.summary.consistent


def test_rearms_injection_plans_spent_by_an_earlier_run():
    plan = LinkFaultPlan(
        category="net", action="deliver", dup_prob=1.0, duration=0.01
    )
    config = small_config(hops=8, injections=[plan], transport="reliable")
    before = dataclasses.replace(plan)
    first = run_config(config)  # fires the trigger; the plan stays as built
    assert first.network.duplicates_injected > 0
    assert plan == before
    (rerun,) = TrialRunner(jobs=1).run([TrialSpec(config=config)])
    assert rerun.summary.network.duplicates_injected == first.network.duplicates_injected
    assert rerun.summary.end_time == first.end_time


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert default_jobs() >= 1


def _cli_table(argv):
    captured = io.StringIO()
    old = sys.stdout
    sys.stdout = captured
    try:
        code = cli_main(argv)
    finally:
        sys.stdout = old
    assert code == 0
    return captured.getvalue()


def test_cli_grid_table_identical_across_jobs():
    argv = [
        "grid", "--knob", "n=4,6", "--knob", "loss=0.0,0.05",
        "--seeds", "2", "--crash", "1@0.05",
    ]
    assert _cli_table(argv + ["--jobs", "1"]) == _cli_table(
        argv + ["--jobs", str(PARALLEL_JOBS)]
    )


def test_chaos_trials_parity_smoke():
    """Chaos draws (partitions, storage outages, triggered crashes) run
    through the runner with the same verdicts at any job count."""
    from test_chaos import chaos_config, check_invariants

    configs = [
        chaos_config("fbl", "nonblocking", 2, seed) for seed in range(4)
    ]
    specs = [TrialSpec(config=c) for c in configs]
    serial = TrialRunner(jobs=1).run(specs)
    parallel = TrialRunner(jobs=2).run(specs)
    assert serial == parallel
    for config, trial in zip(configs, serial):
        assert check_invariants(config, trial.summary) == []
