"""Recovery algorithms.

* :class:`~repro.recovery.nonblocking.NonblockingRecovery` -- **the
  paper's new algorithm** (Section 3): leader-driven gathering of
  depinfo with incarnation vectors; live processes never block, never
  refuse messages, never write stable storage synchronously; leader
  failover by ordinal number.  Hardened for churn: every episode is
  epoch-numbered, gather progress is persisted at the sequencer, and a
  leader failure hands the round off to the successor, and a live
  process failing mid-round is absorbed into the same round, with every
  request sent before its failure was detected sent again (see
  ``docs/RECOVERY.md``).
* :class:`~repro.recovery.blocking.BlockingRecovery` -- the baseline
  "optimized to reduce the communication overhead": the recovering
  process queries live processes directly (no leader or sequencer
  round), but live processes block from request to completion and
  synchronously log their replies to stable storage first.
* :class:`~repro.recovery.local.LocalRecovery` -- for pessimistic
  (receiver-based, synchronous) logging: recovery is entirely local.
* :class:`~repro.recovery.optimistic_mgr.OptimisticRecovery` -- for
  optimistic logging: recover the logged prefix, announce the rollback,
  and cascade orphan rollbacks.
* :class:`~repro.recovery.coordinated_mgr.CoordinatedRecovery` -- for
  coordinated checkpointing: every process rolls back to the most recent
  globally durable snapshot round.
* :class:`~repro.recovery.sequencer.Sequencer` -- the never-failing
  ordinal service backing the paper's system-wide monotonic ``ord``.
"""

from repro.protocols import Registry


def _load(name: str) -> type:
    # one static import per name, as in ``repro.protocols``
    if name == "blocking":
        from repro.recovery.blocking import BlockingRecovery as cls
    elif name == "nonblocking":
        from repro.recovery.nonblocking import NonblockingRecovery as cls
    elif name == "local":
        from repro.recovery.local import LocalRecovery as cls
    elif name == "optimistic":
        from repro.recovery.optimistic_mgr import OptimisticRecovery as cls
    else:
        from repro.recovery.coordinated_mgr import CoordinatedRecovery as cls
    return cls


RECOVERY_MANAGERS = Registry(
    ("blocking", "nonblocking", "local", "optimistic", "coordinated"), _load
)
