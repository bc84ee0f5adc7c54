"""Connectivity graphs between simulated nodes.

A :class:`Topology` says which ordered pairs of nodes may exchange
messages.  Every system is built on the full mesh (the paper's LAN);
an explicit link list restricts it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple


class Topology:
    """Directed connectivity between node ids.

    Parameters
    ----------
    nodes:
        The node ids participating in the network.
    links:
        Ordered pairs allowed to communicate.  If ``None``, the topology
        is a full mesh (excluding self-links).
    """

    def __init__(
        self,
        nodes: Iterable[int],
        links: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> None:
        self.nodes: List[int] = sorted(set(nodes))
        if len(self.nodes) < 1:
            raise ValueError("topology needs at least one node")
        node_set = set(self.nodes)
        if links is None:
            self._links: Set[Tuple[int, int]] = {
                (a, b) for a in self.nodes for b in self.nodes if a != b
            }
        else:
            self._links = set()
            for src, dst in links:
                if src not in node_set or dst not in node_set:
                    raise ValueError(f"link ({src}, {dst}) references unknown node")
                if src == dst:
                    raise ValueError(f"self-link ({src}, {dst}) not allowed")
                self._links.add((src, dst))

    # ------------------------------------------------------------------
    def connected(self, src: int, dst: int) -> bool:
        """Whether ``src`` may send directly to ``dst``."""
        return (src, dst) in self._links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(nodes={len(self.nodes)}, links={len(self._links)})"
