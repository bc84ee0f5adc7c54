"""Vector clocks.

Provide the happens-before partial order over process events.  The
optimistic-logging comparator uses them to detect orphans (a live process
whose state depends on a lost, unlogged delivery), and property tests use
them to validate the causality substrate itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional


class VectorClock:
    """A sparse vector clock over integer process ids.

    Missing entries are implicitly zero, so clocks over different node
    sets compare correctly.
    """

    __slots__ = ("clocks",)

    def __init__(self, clocks: Optional[Mapping[int, int]] = None) -> None:
        self.clocks: Dict[int, int] = {}
        if clocks:
            for pid, value in clocks.items():
                if value < 0:
                    raise ValueError(f"clock component must be non-negative, got {value!r}")
                if value > 0:
                    self.clocks[int(pid)] = int(value)

    # ------------------------------------------------------------------
    def get(self, pid: int) -> int:
        """Component for ``pid`` (zero if absent)."""
        return self.clocks.get(pid, 0)

    def tick(self, pid: int) -> "VectorClock":
        """Advance ``pid``'s component in place; returns self."""
        self.clocks[pid] = self.clocks.get(pid, 0) + 1
        return self

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise max in place; returns self."""
        for pid, value in other.clocks.items():
            if value > self.clocks.get(pid, 0):
                self.clocks[pid] = value
        return self

    def copy(self) -> "VectorClock":
        return VectorClock(self.clocks)

    # ------------------------------------------------------------------
    # happens-before partial order
    # ------------------------------------------------------------------
    def __le__(self, other: "VectorClock") -> bool:
        """True iff self happened-before-or-equals other."""
        return all(value <= other.get(pid) for pid, value in self.clocks.items())

    def __lt__(self, other: "VectorClock") -> bool:
        """Strict happens-before."""
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.clocks == other.clocks

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def concurrent(self, other: "VectorClock") -> bool:
        """Neither clock happened before the other."""
        return not self <= other and not other <= self

    def __hash__(self) -> int:
        return hash(frozenset(self.clocks.items()))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[int, int]:
        """Serializable copy of the non-zero components."""
        return dict(self.clocks)

    @classmethod
    def join(cls, clocks: Iterable["VectorClock"]) -> "VectorClock":
        """Least upper bound of several clocks."""
        result = cls()
        for clock in clocks:
            result.merge(clock)
        return result

    def __repr__(self) -> str:
        inner = ", ".join(f"{pid}:{v}" for pid, v in sorted(self.clocks.items()))
        return f"VectorClock({{{inner}}})"
