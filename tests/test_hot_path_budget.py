"""A speed gate no host can blur: Python-level calls per wire message.

Timings on hosted runners are print-only (``bench-smoke``), because the
runner is not the capture host.  The number of Python-level function
calls one benchmark rep makes is exact on every host, and on this code
base it tracks the per-message cost closely (docs/PERFORMANCE.md §7).
One warm-up rep, then one rep at scale 0.1 under a ``sys.setprofile``
hook that counts ``call`` events, divided by the messages the rep put
on the wire (first transmissions + retransmissions).

    PYTHONPATH=src python tests/test_hot_path_budget.py   # the table, as markdown

(what ``bench-smoke`` appends to its job summary).
"""

import sys
from collections import Counter

import pytest

from repro import build_system
from repro.runner import TrialRunner
from repro.sanitizer.monitor import Sanitizer

from helpers import e2e_workloads

WORKLOADS = e2e_workloads()

#: calls per wire message this code base reaches (CPython 3.11), + 5 %.
#: The parent of the PR that added the gate (PR 17) read 103.9 and 77.5;
#: the parent of the PR that added ``observed_run`` (PR 19) read 136.8;
#: the parent of the PR that flattened the delivery path and added the
#: last two rows (PR 21) read 86.3 / 58.4 / 122.6 / 80.6 / 64.0.
#: The parent of the change that made the registry counters summary-time
#: views over the ``*Stats`` read 60.8 / 49.5 / 96.9 / 63.5 / 61.9.
#: ``storage_logging`` is the three non-FBL protocol trees.
#: ``observed_run`` read 96.5 at the parent of the change that keeps the
#: trace as columns: the change before it moved the ``details`` reads
#: into the observers' handlers without re-basing this row.  Columns
#: trade a kept record's event build and publish call for one ``keep``
#: call; a subscribed record pays that call on top.
REACHED = {
    "steady_fbl": 58.9,
    "lossy_transport": 46.9,
    "observed_run": 95.9,
    "recovery_churn": 61.6,
    "storage_logging": 58.7,
}
BUDGET = {workload: reached * 1.05 for workload, reached in REACHED.items()}


def calls_per_wire_message(workload: str, seed: int = 1000, scale: float = 0.1):
    specs = WORKLOADS[workload].specs
    TrialRunner(jobs=1).run(specs(seed, scale))  # warm imports and caches
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    runner, trial_specs = TrialRunner(jobs=1), specs(seed, scale)
    sys.setprofile(hook)
    try:
        results = runner.run(trial_specs)
    finally:
        sys.setprofile(None)
    wire = sum(
        r.summary.network.total_messages() + r.summary.network.retransmits
        for r in results
    )
    return calls / wire, calls, wire


@pytest.mark.parametrize("workload", sorted(BUDGET))
def test_python_calls_per_wire_message_stay_in_budget(workload):
    per_message, calls, wire = calls_per_wire_message(workload)
    assert per_message <= BUDGET[workload], (
        f"{workload}: {per_message:.1f} Python-level calls per wire message "
        f"({calls} calls / {wire} messages), budget {BUDGET[workload]:.1f}. "
        f"Something on the per-message path got more expensive; "
        f"`python benchmarks/profile_rep.py {workload}` names the function."
    )


def main() -> int:
    """Print the five figures against their budgets (a markdown table)."""
    print("| workload | Python calls per wire message | budget |")
    print("|---|---|---|")
    over = 0
    for workload in sorted(BUDGET):
        per_message, calls, wire = calls_per_wire_message(workload)
        over += per_message > BUDGET[workload]
        print(f"| `{workload}` | {per_message:.1f} ({calls} / {wire}) "
              f"| {BUDGET[workload]:.1f} |")
    return 1 if over else 0


def test_sanitizer_is_entered_once_per_handled_record(monkeypatch):
    """Same records, fewer observer calls: ``Sanitizer.on_event`` runs
    exactly once for each record whose ``category.action`` has an
    invariant handler and never for any other (``net.send``,
    ``net.deliver``, ... are nearly half of ``observed_run``)."""
    entered = Counter()
    on_event = Sanitizer.on_event

    def counting(self, event):
        entered[f"{event.category}.{event.action}"] += 1
        on_event(self, event)

    monkeypatch.setattr(Sanitizer, "on_event", counting)
    (spec,) = WORKLOADS["observed_run"].specs(1000, 0.1)
    system = build_system(spec.materialize())
    result = system.run()
    handled = {f"{c}.{a}" for c, a in system.sanitizer._handlers}
    records = system.trace.counters
    assert entered == {k: n for k, n in records.items() if k in handled}
    assert sum(entered.values()) < 0.6 * sum(records.values())
    assert result.extra["sanitizer"]["events_seen"] == sum(entered.values())


if __name__ == "__main__":
    sys.exit(main())
