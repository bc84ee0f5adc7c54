"""Sender-based message logging: the ``f = 1`` member of the family.

Johnson & Zwaenepoel's sender-based message logging [SBML, FTCS 1987]
keeps the message data *and* the receipt order in the sender's volatile
store: the receiver returns the rsn it assigned in a small ack.  The
paper presents SBML as "a variation on" the ``f = 1`` instance of FBL,
so we implement it exactly that way -- FBL with ``f = 1`` and
``ack_to_sender`` enabled, which makes the sender the second host (after
the receiver itself) storing every determinant.
"""

from __future__ import annotations

from repro.protocols.fbl import FamilyBasedLogging


class SenderBasedLogging(FamilyBasedLogging):
    """FBL(f=1) with explicit rsn acknowledgements to the sender."""

    name = "sender_based"
    supported_recovery = ("nonblocking", "blocking", "nonblocking-restart")

    def __init__(self) -> None:
        super().__init__(f=1, ack_to_sender=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SenderBasedLogging()"
