"""Process substrate.

* :mod:`repro.procs.process` -- the deterministic, replayable application
  process model.  FBL protocols assume *piecewise deterministic*
  execution: the only nondeterminism is the order in which messages are
  delivered, so replaying the same deliveries in the same order
  regenerates the same sends and the same state.
* :mod:`repro.procs.failure` -- crash-failure injection (timed and
  trace-triggered) and the timeout failure detector whose detection
  latency ("several seconds of timeouts and retrials", per the paper)
  dominates the measured recovery times.
"""
