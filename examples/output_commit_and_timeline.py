#!/usr/bin/env python3
"""Output commit across the design space, with a visual timeline.

Two classic yardsticks in one example:

1. **Output-commit latency** -- how long a message to the outside world
   (a receipt, a terminal line) must be held until the state producing
   it is guaranteed recoverable.  Run under every protocol family.
2. **ASCII timelines** -- the paper's E2 scenario rendered per node, so
   the difference between the blocking baseline (live lanes full of
   ``#``) and the new non-blocking algorithm (clean ``=`` lanes) is
   visible at a glance.

Run:  python examples/output_commit_and_timeline.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import SystemConfig, build_system, crash_at, crash_on, run_config
from repro.analysis.report import format_table
from repro.analysis.stats import summarize
from repro.analysis.timeline import render_timeline

#: (label, protocol, recovery, params, checkpoint interval).  Optimistic
#: checkpoints too: an orphaned checkpoint is skipped at restart in
#: favour of the newest clean retained line.
STACKS = [
    ("pessimistic", "pessimistic", "local", {}, 0),
    ("fbl(f=2)", "fbl", "nonblocking", {"f": 2}, 0),
    ("manetho(f=n)", "manetho", "nonblocking", {}, 0),
    ("optimistic", "optimistic", "optimistic", {}, 8),
    ("coordinated", "coordinated", "coordinated", {"snapshot_every": 12}, 0),
]


def output_latency_table() -> None:
    rows = []
    for label, protocol, recovery, params, checkpoint_every in STACKS:
        config = SystemConfig(
            name=label, n=8, protocol=protocol, protocol_params=dict(params),
            recovery=recovery, workload="uniform",
            workload_params={"hops": 40, "fanout": 2, "output_every": 4},
            detection_delay=3.0, state_bytes=1_000_000,
            checkpoint_every=checkpoint_every,
        )
        result = run_config(config)
        assert result.consistent
        stats = summarize(result.output_latencies())
        rows.append([
            label, result.outputs_committed,
            f"{stats.p50 * 1000:.2f}", f"{stats.maximum * 1000:.1f}",
        ])
    print(format_table(
        ["stack", "outputs", "commit p50 (ms)", "commit max (ms)"],
        rows,
        title="how long must an output to the outside world be held?",
    ))
    print()
    print(
        "pessimistic commits instantly (it already paid on every delivery);\n"
        "FBL needs one acknowledged determinant push; Manetho one async disk\n"
        "write; optimistic waits for every dependency's log; coordinated\n"
        "waits for a whole snapshot round."
    )


def timelines() -> None:
    for recovery in ("blocking", "nonblocking"):
        trigger = "depinfo_request" if recovery == "nonblocking" else "recovery_request"
        config = SystemConfig(
            name=f"timeline-{recovery}", n=6,
            protocol="fbl", protocol_params={"f": 2}, recovery=recovery,
            workload="uniform", workload_params={"hops": 40, "fanout": 2},
            crashes=[
                crash_at(node=2, time=0.05),
                crash_on(4, "net", "deliver", match_node=4,
                         match_details={"mtype": trigger}, immediate=True),
            ],
            detection_delay=1.0, state_bytes=300_000,
        )
        system = build_system(config)
        system.run()
        print()
        print(f"--- E2 under {recovery} recovery ---")
        print(render_timeline(system.trace))


def main() -> None:
    output_latency_table()
    timelines()


if __name__ == "__main__":
    main()
