"""Profile one rep of an end-to-end workload: the step after "which layer".

``benchmarks/e2e/run.py --trace 1`` says which *layer* a workload's CPU
goes to; this says which *functions*.  One warm-up rep, then one rep of
the same trial list under ``cProfile`` through ``TrialRunner(jobs=1)``
-- exactly what the benchmark times -- and the top rows are printed,
under a two-line header giving the rep's wire messages (first
transmissions + retransmissions) and the profiled time per wire
message, so two profiles of different-length reps compare.

    python benchmarks/profile_rep.py storage_logging
    python benchmarks/profile_rep.py storage_logging --sort cumtime --filter 'storage|copy'

``cProfile`` taxes every Python-level call and no C-level work, so its
proportions lean against call-heavy code: use it to find candidates,
then measure with the paired ``run.py --trace 0`` protocol
(``benchmarks/e2e/README.md``).  The workloads are imported from
``benchmarks/e2e``; nothing there is edited or re-implemented.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from typing import List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(_HERE, os.pardir, "src"), os.path.join(_HERE, "e2e")]

from repro.runner import TrialRunner  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def profile_rep(workload: str, seed: int, scale: float) -> Tuple[pstats.Stats, int]:
    """Profile the second rep of ``workload`` (the first warms caches);
    returns the profile and the messages that rep put on the wire."""
    specs = WORKLOADS[workload].specs
    TrialRunner(jobs=1).run(specs(seed, scale))
    profiler = cProfile.Profile()
    results = profiler.runcall(TrialRunner(jobs=1).run, specs(seed, scale))
    wire_messages = sum(
        r.summary.network.total_messages() + r.summary.network.retransmits
        for r in results
    )
    return pstats.Stats(profiler), wire_messages


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink hops and seed counts (smoke tests)")
    parser.add_argument("--sort", choices=("tottime", "cumtime"), default="tottime")
    parser.add_argument("--filter", metavar="REGEX", default=None,
                        help="only rows whose file:line(function) matches")
    parser.add_argument("--top", type=int, default=30, help="rows to print")
    args = parser.parse_args(argv)

    stats, wire_messages = profile_rep(args.workload, args.seed, args.scale)
    print(f"wire messages: {wire_messages}")
    print(
        f"µs of profiled time per wire message: "
        f"{1e6 * stats.total_tt / wire_messages:.1f}"
    )
    stats.sort_stats(args.sort)
    restrictions = ([args.filter] if args.filter else []) + [args.top]
    stats.print_stats(*restrictions)
    return 0


if __name__ == "__main__":
    sys.exit(main())
