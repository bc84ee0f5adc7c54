"""Logging and checkpointing protocols.

The paper's contribution is a recovery algorithm for the Family-Based
Logging (FBL) protocols; this package implements that family plus the
comparator protocols its related-work section situates it against:

* :class:`~repro.protocols.fbl.FamilyBasedLogging` -- FBL(f): message
  data in the sender's volatile log, receipt orders replicated at
  ``f + 1`` hosts by piggybacking (Alvisi & Marzullo).
* :class:`~repro.protocols.sender_based.SenderBasedLogging` -- the
  ``f = 1`` instance with explicit rsn acknowledgements (Johnson &
  Zwaenepoel's sender-based message logging).
* :class:`~repro.protocols.manetho.ManethoLogging` -- the ``f = n``
  instance: determinants logged asynchronously to a never-failing
  stable-storage process, antecedence-graph style (Elnozahy &
  Zwaenepoel's Manetho).
* :class:`~repro.protocols.pessimistic.PessimisticLogging` -- receiver
  logs every message synchronously to stable storage before delivery;
  recovery is purely local.
* :class:`~repro.protocols.optimistic.OptimisticLogging` -- receiver
  logs asynchronously; failures can orphan live processes, which must
  roll back (Strom & Yemini).
* :class:`~repro.protocols.coordinated.CoordinatedCheckpointing` --
  no logging at all; quiesced consistent snapshots, and every process
  rolls back on any failure.
* :class:`~repro.protocols.adaptive.AdaptiveLogging` -- runtime hybrid:
  each process migrates between pessimistic / FBL(f) / optimistic modes
  under a byte-cost model, switching only at determinant-quiescent
  points (the paper's "no single protocol wins" result, made a
  protocol).
"""

from collections.abc import Mapping
from typing import Callable, Dict, Iterator, Tuple


class Registry(Mapping):
    """A read-only name -> class mapping that imports a class's module
    the first time its name is looked up.

    Iterating, ``len`` and ``in`` read the names and import nothing, so a
    run loads only the stack it runs (``SystemConfig.validate`` is where
    a config's two lookups happen).  ``load(name)`` returns the class."""

    def __init__(self, names: Tuple[str, ...], load: Callable[[str], type]) -> None:
        self._names = names
        self._load = load
        self._classes: Dict[str, type] = {}

    def __getitem__(self, name: str) -> type:
        cls = self._classes.get(name)
        if cls is None:
            if name not in self._names:
                raise KeyError(name)
            cls = self._classes[name] = self._load(name)
        return cls

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _load(name: str) -> type:
    # one static import per name, so a scan of import statements sees
    # every stack module
    if name == "fbl":
        from repro.protocols.fbl import FamilyBasedLogging as cls
    elif name == "sender_based":
        from repro.protocols.sender_based import SenderBasedLogging as cls
    elif name == "manetho":
        from repro.protocols.manetho import ManethoLogging as cls
    elif name == "pessimistic":
        from repro.protocols.pessimistic import PessimisticLogging as cls
    elif name == "optimistic":
        from repro.protocols.optimistic import OptimisticLogging as cls
    elif name == "coordinated":
        from repro.protocols.coordinated import CoordinatedCheckpointing as cls
    else:
        from repro.protocols.adaptive import AdaptiveLogging as cls
    return cls


PROTOCOLS = Registry(
    ("fbl", "sender_based", "manetho", "pessimistic", "optimistic", "coordinated", "adaptive"),
    _load,
)
