"""Causality substrate.

Implements the dependency-tracking machinery the FBL protocols and the
recovery algorithms are built from:

* :mod:`repro.causality.lamport` -- scalar Lamport clocks,
* :mod:`repro.causality.vector_clock` -- vector clocks with the full
  happens-before partial order,
* :mod:`repro.causality.determinant` -- Alvisi/Marzullo-style message
  *determinants* ``#m = (sender, ssn, receiver, rsn)`` recording the
  receipt order of a message,
* :mod:`repro.causality.dependency` -- the three ``depinfo``
  representations the paper lists (dependency vector, dependency matrix,
  dependency/antecedence graph), all exposing one common interface so the
  recovery algorithms are representation-agnostic, exactly as the paper
  claims its algorithm is.

Import the submodule you need; the package itself loads none of them.
"""
