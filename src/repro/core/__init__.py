"""Core: the assembled rollback-recovery system and its harness.

* :mod:`repro.core.config` -- one declarative description of a run
  (n, protocol, f, recovery algorithm, workload, failure schedule,
  hardware parameters).
* :mod:`repro.core.node` -- a simulated host: application process +
  logging protocol + recovery manager + incarnation bookkeeping.
* :mod:`repro.core.system` -- builds and runs a whole system, producing
  a :class:`~repro.core.metrics.RunResult`.
* :mod:`repro.core.metrics` -- measurements the paper reports (blocked
  time of live processes, recovery durations, control-message overhead,
  stable-storage stalls).
* :mod:`repro.core.oracle` -- an omniscient observer (zero simulated
  cost) that checks the paper's safety and liveness properties on every
  run: replayed deliveries match the original order and digests, and
  the one orphan rule, judged online -- no live process depends on a
  rolled-back delivery.
"""
