"""Message determinants.

A *determinant* records everything needed to replay one message delivery
deterministically: who sent it, the sender's sequence number, who received
it, and the *receipt order* (rsn) the receiver assigned.  This is the
``#m`` of Alvisi & Marzullo's message-logging theory and the unit of
information the FBL protocols replicate at ``f + 1`` hosts.

The paper's recovery algorithm gathers exactly these records (as
``depinfo``) from live processes so that recovering processes can replay
their pre-crash deliveries in the original order.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter


class Determinant(namedtuple("_DeterminantFields", "sender ssn receiver rsn")):
    """The receipt-order record of a single message delivery.

    A 4-field tuple type: construction, hashing, equality and ordering
    (``sender``, ``ssn``, ``receiver``, ``rsn``, in that order) are the
    native tuple operations, so the per-delivery path and every
    ``sorted(...)`` over determinants stay in C.

    It is also the only in-process form of a determinant: being
    immutable, the object a delivery creates travels by reference in
    piggybacks, depinfo replies and distributions, FBL pushes and acks,
    and stable-log records, and the log that receives it keeps it as it
    is.  Plain tuples (``tuple(det)``) appear only where data leaves the
    simulation: checkpoint images (:func:`~repro.storage.checkpoint.encode_image`
    refuses a ``Determinant``) and trace record values, which must repr
    and serialise as plain data.

    Attributes
    ----------
    sender:
        Node id that sent the message.
    ssn:
        Sender sequence number; ``(sender, ssn)`` names the message.
    receiver:
        Node id that delivered the message.
    rsn:
        Receive sequence number: position of the delivery in the
        receiver's delivery order.  ``(receiver, rsn)`` names the
        delivery event.
    """

    __slots__ = ()

    def __new__(cls, sender: int, ssn: int, receiver: int, rsn: int) -> "Determinant":
        if ssn < 0 or rsn < 0:
            raise ValueError(
                f"ssn/rsn must be non-negative: {(sender, ssn, receiver, rsn)!r}"
            )
        if sender == receiver:
            raise ValueError(
                f"self-delivery is not a message: {(sender, ssn, receiver, rsn)!r}"
            )
        return tuple.__new__(cls, (sender, ssn, receiver, rsn))

    #: ``(sender, ssn)`` -- globally unique name of the message.
    message_id = property(itemgetter(0, 1))
    #: ``(receiver, rsn)`` -- globally unique name of the delivery.
    delivery_id = property(itemgetter(2, 3))

    def __str__(self) -> str:
        return f"#({self.sender},{self.ssn})->({self.receiver},rsn={self.rsn})"
