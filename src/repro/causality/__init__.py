"""Causality substrate.

:mod:`repro.causality.determinant` holds Alvisi/Marzullo-style message
*determinants* ``#m = (sender, ssn, receiver, rsn)``, each recording the
receipt order of one message.  They are the ``depinfo`` the FBL
protocols replicate and the recovery managers gather, merge and replay.

Import the submodule you need; the package itself loads none of them.
"""
