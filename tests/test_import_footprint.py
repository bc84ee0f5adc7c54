"""A run loads only the stack it runs.

For each end-to-end workload, a fresh interpreter does what
``benchmarks/e2e/worker.py`` does before its first timed rep -- its
imports and the first ``System`` -- without bytecode files
(``PYTHONDONTWRITEBYTECODE=1``), as the benchmark's workers run.  The
set of ``repro`` modules then loaded is pinned exactly: a protocol or
recovery manager loaded for a run that does not use it, or a module new
on the set-up path, fails here.  Every module loaded is compiled from
source and stays in memory for the process's life, so it costs
``setup_s`` and ``peak_rss_mb``.  Source lines are printed, not pinned,
so an ordinary edit needs no re-pin.

    PYTHONPATH=src python tests/test_import_footprint.py   # the table, as markdown
"""

import sys
from pathlib import Path

import pytest

from helpers import fresh_interpreter

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"

#: loaded by every workload's set-up
EVERY_RUN = frozenset("""
    repro repro.experiments repro.runner
    repro.causality repro.causality.determinant
    repro.core repro.core.config repro.core.metrics repro.core.metrics_registry
    repro.core.node repro.core.oracle repro.core.output repro.core.system
    repro.net repro.net.latency repro.net.network repro.net.topology
    repro.procs repro.procs.failure repro.procs.process
    repro.protocols repro.protocols.base
    repro.recovery repro.recovery.base repro.recovery.sequencer
    repro.sanitizer repro.sanitizer.causal
    repro.sim repro.sim.events repro.sim.kernel repro.sim.rng repro.sim.spans
    repro.sim.trace
    repro.storage repro.storage.checkpoint repro.storage.stable repro.storage.volatile
    repro.workloads repro.workloads.generators
""".split())

_FBL = ("repro.protocols.fbl", "repro.recovery.nonblocking")

#: workload -> what its set-up loads beside ``EVERY_RUN``.  The parent of
#: the change that made the registries import a stack on lookup (and the
#: packages stop re-exporting) loaded 53 modules on every workload but
#: ``lossy_transport`` (54) and ``observed_run`` (58): all seven
#: protocols and five recovery managers, whichever one ran.  The parent
#: of the change that imports the fault model and the timer classes
#: where they are used loaded both on every workload (``steady_fbl``:
#: 43 modules, now 41); a run with faults loads ``repro.net.faults``.
LOADED = {
    "steady_fbl": frozenset(_FBL),
    "recovery_churn": frozenset(_FBL),
    "lossy_transport": frozenset(_FBL + ("repro.net.faults", "repro.net.transport")),
    "storage_logging": frozenset(("repro.protocols.pessimistic", "repro.recovery.local")),
    "observed_run": frozenset(_FBL + (
        "repro.obs", "repro.obs.ledger", "repro.obs.sampler",
        "repro.sanitizer.monitor", "repro.sim.profile",
    )),
    # the first trial's stack; the rest load when the runner validates
    # the fleet, in the untimed warm-up rep
    "sweep_fleet": frozenset(_FBL),
}


def loaded_modules(workload: str) -> dict:
    """``{module: source file}`` for every ``repro`` module loaded once
    the worker's imports have run and its first ``System`` is built."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(E2E)!r})\n"
        "import worker\n"
        f"specs = worker.WORKLOADS[{workload!r}].specs(1000, 1.0)\n"
        "worker.System(specs[0].materialize())\n"
        "print({name: module.__file__ for name, module in sys.modules.items()\n"
        "       if name == 'repro' or name.startswith('repro.')})\n"
    )
    return fresh_interpreter(script, PYTHONDONTWRITEBYTECODE="1")


def _lines(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


@pytest.mark.parametrize("workload", sorted(LOADED))
def test_a_run_loads_only_its_stack(workload):
    loaded = set(loaded_modules(workload))
    expected = EVERY_RUN | LOADED[workload]
    assert loaded == expected, (
        f"{workload}: loads {sorted(loaded - expected)} beyond the pinned set, "
        f"and not {sorted(expected - loaded)}"
    )


def main() -> int:
    """Print each workload's loaded modules against the pinned set (markdown)."""
    print("| workload | `repro` modules loaded | pinned | source lines |")
    print("|---|---|---|---|")
    off = 0
    for workload in sorted(LOADED):
        loaded = loaded_modules(workload)
        pinned = len(EVERY_RUN | LOADED[workload])
        off += set(loaded) != EVERY_RUN | LOADED[workload]
        lines = sum(_lines(path) for path in loaded.values())
        print(f"| `{workload}` | {len(loaded)} | {pinned} | {lines:,} |")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
