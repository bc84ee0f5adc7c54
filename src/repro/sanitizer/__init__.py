"""Online correctness tooling: invariant monitor + causal bookkeeping.

The submodules are imported where they are used -- the oracle needs
only :mod:`repro.sanitizer.causal`, and a ``--sanitize`` run adds
:mod:`repro.sanitizer.monitor` -- so this package loads none of them.
"""
