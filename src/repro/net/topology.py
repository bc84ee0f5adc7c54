"""Connectivity graphs between simulated nodes.

A :class:`Topology` says which ordered pairs of nodes may exchange
messages and optionally overrides the latency model per link.  The
reproduction's experiments all use the full mesh (the paper's LAN), but
ring and star are provided for workload variety and for exercising the
protocols on sparser communication patterns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.net.latency import LatencyModel


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
        #: per-link latency overrides; the :class:`Network` reads this dict
        #: per message, so :meth:`set_link_latency` takes effect whenever called
        self.latency_overrides: Dict[Tuple[int, int], LatencyModel] = {}

    # ------------------------------------------------------------------
    def connected(self, src: int, dst: int) -> bool:
        """Whether ``src`` may send directly to ``dst``."""
        return (src, dst) in self._links

    def neighbors(self, src: int) -> List[int]:
        """Nodes ``src`` can send to, sorted for determinism."""
        return sorted(dst for (a, dst) in self._links if a == src)

    def links(self) -> List[Tuple[int, int]]:
        """All directed links, sorted for determinism."""
        return sorted(self._links)

    # ------------------------------------------------------------------
    def set_link_latency(self, src: int, dst: int, model: LatencyModel) -> None:
        """Override the latency model on one directed link."""
        if not self.connected(src, dst):
            raise ValueError(f"no link ({src}, {dst}) in topology")
        self.latency_overrides[(src, dst)] = model

    def link_latency(self, src: int, dst: int) -> Optional[LatencyModel]:
        """Per-link latency override, or ``None`` to use the network default."""
        return self.latency_overrides.get((src, dst))

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(nodes={len(self.nodes)}, links={len(self._links)})"


def full_mesh(n: int) -> Topology:
    """Every node can reach every other node directly (the paper's LAN)."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n!r}")
    return Topology(range(n))


def ring(n: int, bidirectional: bool = True) -> Topology:
    """Nodes arranged in a cycle; each talks to its neighbour(s)."""
    if n < 2:
        raise ValueError(f"ring needs at least two nodes, got {n!r}")
    links = []
    for i in range(n):
        links.append((i, (i + 1) % n))
        if bidirectional:
            links.append(((i + 1) % n, i))
    return Topology(range(n), links)


def star(n: int, hub: int = 0) -> Topology:
    """A hub node connected to all spokes (client-server shape)."""
    if n < 2:
        raise ValueError(f"star needs at least two nodes, got {n!r}")
    if not 0 <= hub < n:
        raise ValueError(f"hub {hub!r} out of range for {n} nodes")
    links = []
    for i in range(n):
        if i != hub:
            links.append((hub, i))
            links.append((i, hub))
    return Topology(range(n), links)
