"""Storage substrate.

Three layers, mirroring the paper's cost model:

* :mod:`repro.storage.volatile` -- in-memory logs that are *lost on a
  crash* (sender message logs, determinant logs).  Free to access.
* :mod:`repro.storage.stable` -- stable storage with a synchronous-write
  latency and finite bandwidth.  The paper's central claim is that this
  latency (and the blocking it induces) dominates recovery cost in
  modern systems, so the model tracks every operation and the time each
  caller spent stalled on it.
* :mod:`repro.storage.checkpoint` -- checkpoint save/restore built on
  stable storage; restoring a "one Mbyte process" takes seconds with the
  default DEC-5000-era parameters, as in the paper's evaluation.
"""
