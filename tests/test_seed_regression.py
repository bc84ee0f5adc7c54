"""Byte-identical regression vs the seed simulator.

The fault-injection layer (``repro.net.faults``, ``repro.net.transport``,
storage faults) must be invisible when disabled: with ``faults=None`` and
``transport="raw"`` -- the defaults -- the paper's experiments must
reproduce the seed's numbers *exactly*, down to the last float.  The
goldens in ``tests/data/seed_golden_e1_e2.json`` were captured from the
seed tree before any fault-injection code landed, and are re-captured
only when a change *intentionally* moves protocol behaviour.  Such
moves, most recent first:

* a depinfo reply carries each determinant's host mask and a recovered
  process merges them, so it stops piggybacking determinants the gather
  showed stable; a completion names the delivered prefix per peer, and
  peers resend only past it.  Digests and deliveries are unchanged;
  application, protocol and recovery bytes, protocol messages, events,
  end times and E1/E2 blocked times move (e2-nonblocking: application
  bytes 302,144 -> 218,976, protocol 58,912 -> 27,040 in 315 -> 149
  messages, recovery 260,696 -> 260,824, events 1,230 -> 1,064);
* the stale-reply rule, under which E2's leader asks again for the
  depinfo it requested before q's failure was detected
  (docs/RECOVERY.md §4).

Exact ``==`` on floats is deliberate: the guarantee under test is
bit-identical execution (same RNG draws, same event order), not numeric
closeness.
"""

import json
from pathlib import Path

import pytest

from repro import build_system
from repro.experiments import failure_during_recovery, single_failure

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "seed_golden_e1_e2.json").read_text()
)


def snapshot(system):
    r = system.run()
    return {
        "end_time": r.end_time,
        "deliveries": {str(k): v for k, v in sorted(r.deliveries.items())},
        "recovery_durations": r.recovery_durations(),
        "blocked_time_by_node": {
            str(k): v for k, v in sorted(r.blocked_time_by_node.items())
        },
        "messages": dict(sorted(r.network.messages.items())),
        "bytes": dict(sorted(r.network.bytes.items())),
        "dropped": r.network.dropped,
        "digests": {str(k): v for k, v in sorted(r.digests.items())},
        "events_processed": r.extra["events_processed"],
    }


BUILDERS = {
    "e1-nonblocking": lambda: build_system(single_failure(recovery="nonblocking")),
    "e1-blocking": lambda: build_system(single_failure(recovery="blocking")),
    "e2-nonblocking": lambda: build_system(failure_during_recovery(recovery="nonblocking")),
    "e2-blocking": lambda: build_system(failure_during_recovery(recovery="blocking")),
}


@pytest.mark.parametrize("key", sorted(BUILDERS))
def test_defaults_byte_identical_to_seed(key):
    assert snapshot(BUILDERS[key]()) == GOLDEN[key]


def test_default_config_builds_no_fault_machinery():
    """The default path must not even install the fault/transport hooks."""
    system = build_system(single_failure(recovery="nonblocking"))
    assert system.network.faults is None
    assert system.network.transport is None
    assert system.transport is None
    assert all(node.storage.faults is None for node in system.nodes)
