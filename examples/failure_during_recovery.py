#!/usr/bin/env python3
"""The paper's hard case: a process fails during another's recovery.

Reproduces the evaluation's second experiment side by side:

* under the **blocking** baseline, every live process stalls from the
  first recovery request until the *second* failure has been detected,
  restored and recovered -- seconds of lost progress per live process;
* under the **new non-blocking algorithm**, the leader voids the depinfo
  reply that never arrives, waits for the failed process to announce its
  new incarnation, asks again wherever it asked before the failure
  (the paper's "goto 4"), and no live process stalls at all.

Run:  python examples/failure_during_recovery.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import build_system
from repro.analysis.report import format_table
from repro.experiments import failure_during_recovery


def main() -> None:
    rows = []
    for recovery in ("blocking", "nonblocking"):
        # q (node 5) dies the instant the first recovery's request
        # reaches it, before it can reply -- the paper's exact E2 setup
        system = build_system(failure_during_recovery(recovery))
        result = system.run()
        assert result.consistent
        durations = sorted(result.recovery_durations(), reverse=True)
        restarts = sum(e.gather_restarts for e in result.episodes)
        rows.append([
            recovery,
            f"{durations[0]:.2f} / {durations[1]:.2f}",
            f"{result.mean_blocked_time(exclude=[3, 5]):.3f}",
            result.recovery_messages(),
            restarts,
        ])

    print(format_table(
        ["algorithm", "recovery times (s)", "live blocked (s)", "ctl msgs", "gather restarts"],
        rows,
        title="failure during recovery (paper Section 5, second experiment)",
    ))
    print()
    print(
        "both algorithms need ~seconds to recover (detection + restore of\n"
        "the second process dominates), but only the blocking baseline\n"
        "makes every live process pay that bill too.  The non-blocking\n"
        "algorithm spends a few extra control messages instead."
    )


if __name__ == "__main__":
    main()
