"""Online correctness tooling: invariant monitor + causal bookkeeping.

The submodules are imported where they are used -- the oracle needs
only :mod:`repro.sanitizer.causal`, a ``--sanitize`` run adds
:mod:`repro.sanitizer.monitor`, and the CLI alone reaches for
:mod:`repro.sanitizer.differ` -- so this package loads none of them.
"""
