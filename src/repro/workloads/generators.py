"""Deterministic workload behaviours.

A :class:`Workload` is a *pure* strategy object: given the identity of a
process and a delivered message, it returns the sends that delivery
triggers.  Purity matters -- during recovery the same deliveries are
replayed through the same functions and must regenerate byte-identical
sends (the liveness proof of the paper's Section 4.4 depends on exactly
this).  All pseudo-random choices are therefore derived from SHA-256 of
the call's arguments, never from shared mutable RNG state.

Workload activity is bounded by a hop counter (TTL) carried in every
payload, so simulations quiesce deterministically without timers (timers
would violate the piecewise-determinism assumption).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from hashlib import sha256
from typing import Any, Dict, List

from repro.procs.process import OUTPUT_DST, Send, stable_payload_repr


def _hash_int(*parts: Any) -> int:
    """Deterministic 64-bit integer from the given parts."""
    text = "|".join(map(str, parts))
    return int.from_bytes(sha256(text.encode()).digest()[:8], "big")


class Workload(ABC):
    """Pure application behaviour.

    Subclasses must not keep mutable per-delivery state: everything a
    decision depends on must be in the arguments (including the payload).
    """

    def __init__(self, seed: int = 0, body_bytes: int = 128) -> None:
        self.seed = seed
        self.body_bytes = body_bytes

    @abstractmethod
    def initial_sends(self, node_id: int, n_nodes: int) -> List[Send]:
        """Sends emitted by ``node_id`` at startup."""

    @abstractmethod
    def on_deliver(
        self,
        node_id: int,
        n_nodes: int,
        rsn: int,
        sender: int,
        payload: Dict[str, Any],
    ) -> List[Send]:
        """Sends triggered at ``node_id`` by delivering ``payload``."""

    # ------------------------------------------------------------------
    def _choice(self, options: int, *parts: Any) -> int:
        """Deterministic choice in ``range(options)`` from hashed parts."""
        if options <= 0:
            raise ValueError("options must be positive")
        return _hash_int(self.seed, *parts) % options

    def _pick_peer(self, node_id: int, n_nodes: int, *parts: Any) -> int:
        """Deterministically pick a peer other than ``node_id``."""
        if n_nodes < 2:
            raise ValueError("need at least two nodes to pick a peer")
        offset = 1 + self._choice(n_nodes - 1, node_id, *parts)
        return (node_id + offset) % n_nodes


class TokenRingWorkload(Workload):
    """Tokens circulating around a logical ring.

    ``tokens`` tokens start at evenly spaced nodes; each delivery forwards
    the token to the next node on the ring until its hop counter runs out.
    A sparse, highly causal workload: every message is an antecedent of
    all later messages of the same token (the paper's Figure 1 chain,
    generalised).
    """

    def __init__(
        self, hops: int = 32, tokens: int = 1, seed: int = 0, body_bytes: int = 128
    ) -> None:
        super().__init__(seed, body_bytes)
        if hops < 0 or tokens < 1:
            raise ValueError("hops must be >= 0 and tokens >= 1")
        self.hops = hops
        self.tokens = tokens

    def initial_sends(self, node_id: int, n_nodes: int) -> List[Send]:
        sends = []
        for token in range(self.tokens):
            origin = (token * max(1, n_nodes // self.tokens)) % n_nodes
            if node_id == origin:
                sends.append(
                    Send(
                        dst=(node_id + 1) % n_nodes,
                        payload={"token": token, "hops": self.hops},
                        body_bytes=self.body_bytes,
                    )
                )
        return sends

    def on_deliver(
        self,
        node_id: int,
        n_nodes: int,
        rsn: int,
        sender: int,
        payload: Dict[str, Any],
    ) -> List[Send]:
        hops = payload.get("hops", 0)
        if hops <= 0:
            return []
        return [
            Send(
                dst=(node_id + 1) % n_nodes,
                payload={"token": payload["token"], "hops": hops - 1},
                body_bytes=self.body_bytes,
            )
        ]


class UniformWorkload(Workload):
    """Messages forwarded to uniformly pseudo-random peers.

    Each node seeds ``fanout`` chains; each delivery forwards the chain to
    a hash-chosen peer until the hop counter expires.  The default
    workload for the paper-style experiments: it spreads determinants
    across all processes.
    """

    def __init__(
        self,
        hops: int = 16,
        fanout: int = 2,
        seed: int = 0,
        body_bytes: int = 128,
        output_every: int = 0,
    ) -> None:
        super().__init__(seed, body_bytes)
        if hops < 0 or fanout < 0 or output_every < 0:
            raise ValueError("hops, fanout and output_every must be non-negative")
        self.hops = hops
        self.fanout = fanout
        self.output_every = output_every

    def initial_sends(self, node_id: int, n_nodes: int) -> List[Send]:
        if n_nodes < 2:
            return []
        sends = []
        for chain in range(self.fanout):
            dst = self._pick_peer(node_id, n_nodes, "init", chain)
            sends.append(
                Send(
                    dst=dst,
                    payload={"chain": f"{node_id}.{chain}", "hops": self.hops},
                    body_bytes=self.body_bytes,
                )
            )
        return sends

    def on_deliver(
        self,
        node_id: int,
        n_nodes: int,
        rsn: int,
        sender: int,
        payload: Dict[str, Any],
    ) -> List[Send]:
        sends = []
        if self.output_every and (rsn + 1) % self.output_every == 0:
            sends.append(Send(OUTPUT_DST, {"report_after": rsn}, 32))
        hops = payload.get("hops", 0)
        if hops <= 0 or n_nodes < 2:
            return sends
        chain = payload.get("chain", "?")
        # _pick_peer(node_id, n_nodes, "fwd", chain, hops, sender), inline:
        # the same hashed text, one frame
        text = f"{self.seed}|{node_id}|fwd|{chain}|{hops}|{sender}"
        toss = int.from_bytes(sha256(text.encode()).digest()[:8], "big")
        dst = (node_id + 1 + toss % (n_nodes - 1)) % n_nodes
        sends.append(Send(dst, {"chain": chain, "hops": hops - 1}, self.body_bytes))
        return sends


class ClientServerWorkload(Workload):
    """Clients issue requests to a server node, which replies.

    Node ``server`` answers every request; every other node issues
    ``requests`` request/reply exchanges.  Models the paper's motivation
    of long-running services whose *live* clients should not stall while
    some other client recovers.
    """

    def __init__(
        self,
        requests: int = 8,
        server: int = 0,
        seed: int = 0,
        body_bytes: int = 128,
        output_replies: bool = False,
    ) -> None:
        super().__init__(seed, body_bytes)
        if requests < 0:
            raise ValueError("requests must be non-negative")
        self.requests = requests
        self.server = server
        #: if True the server externalises every request (think: a bank
        #: printing a receipt) -- an output-commit per request
        self.output_replies = output_replies

    def initial_sends(self, node_id: int, n_nodes: int) -> List[Send]:
        if node_id == self.server or self.requests == 0:
            return []
        return [
            Send(
                dst=self.server,
                payload={"op": "request", "client": node_id, "remaining": self.requests},
                body_bytes=self.body_bytes,
            )
        ]

    def on_deliver(
        self,
        node_id: int,
        n_nodes: int,
        rsn: int,
        sender: int,
        payload: Dict[str, Any],
    ) -> List[Send]:
        op = payload.get("op")
        if node_id == self.server and op == "request":
            sends = []
            if self.output_replies:
                sends.append(
                    Send(
                        dst=OUTPUT_DST,
                        payload={"receipt_for": payload["client"], "at": rsn},
                        body_bytes=32,
                    )
                )
            sends.append(
                Send(
                    dst=payload["client"],
                    payload={
                        "op": "reply",
                        "client": payload["client"],
                        "remaining": payload["remaining"],
                    },
                    body_bytes=self.body_bytes,
                )
            )
            return sends
        if node_id != self.server and op == "reply":
            remaining = payload["remaining"] - 1
            if remaining <= 0:
                return []
            return [
                Send(
                    dst=self.server,
                    payload={"op": "request", "client": node_id, "remaining": remaining},
                    body_bytes=self.body_bytes,
                )
            ]
        return []


class PingPongWorkload(Workload):
    """Adjacent node pairs exchange messages back and forth.

    Node ``2k`` pairs with node ``2k+1``; an odd last node stays idle.
    The simplest two-party causal chain, useful in unit tests.
    """

    def __init__(self, hops: int = 16, seed: int = 0, body_bytes: int = 128) -> None:
        super().__init__(seed, body_bytes)
        if hops < 0:
            raise ValueError("hops must be non-negative")
        self.hops = hops

    def _partner(self, node_id: int, n_nodes: int) -> int:
        partner = node_id + 1 if node_id % 2 == 0 else node_id - 1
        if partner >= n_nodes:
            return node_id  # unpaired trailing node
        return partner

    def initial_sends(self, node_id: int, n_nodes: int) -> List[Send]:
        partner = self._partner(node_id, n_nodes)
        if partner == node_id or node_id % 2 != 0:
            return []
        return [
            Send(dst=partner, payload={"hops": self.hops}, body_bytes=self.body_bytes)
        ]

    def on_deliver(
        self,
        node_id: int,
        n_nodes: int,
        rsn: int,
        sender: int,
        payload: Dict[str, Any],
    ) -> List[Send]:
        hops = payload.get("hops", 0)
        if hops <= 0:
            return []
        return [
            Send(dst=sender, payload={"hops": hops - 1}, body_bytes=self.body_bytes)
        ]


class AllToAllWorkload(Workload):
    """Bursty all-to-all traffic with deterministic thinning.

    Each node starts by sending to every peer.  On each delivery, a
    hash-based coin (expected success 1 in ``n - 1``) decides whether the
    receiver broadcasts a next-generation burst, keeping total traffic
    linear in hops instead of exponential.
    """

    def __init__(self, hops: int = 8, seed: int = 0, body_bytes: int = 128) -> None:
        super().__init__(seed, body_bytes)
        if hops < 0:
            raise ValueError("hops must be non-negative")
        self.hops = hops

    def initial_sends(self, node_id: int, n_nodes: int) -> List[Send]:
        return [
            Send(
                dst=dst,
                payload={"origin": node_id, "hops": self.hops},
                body_bytes=self.body_bytes,
            )
            for dst in range(n_nodes)
            if dst != node_id
        ]

    def on_deliver(
        self,
        node_id: int,
        n_nodes: int,
        rsn: int,
        sender: int,
        payload: Dict[str, Any],
    ) -> List[Send]:
        hops = payload.get("hops", 0)
        if hops <= 0 or n_nodes < 2:
            return []
        toss = self._choice(
            n_nodes - 1, "burst", node_id, sender, hops, stable_payload_repr(payload)
        )
        if toss != 0:
            return []
        return [
            Send(
                dst=dst,
                payload={"origin": node_id, "hops": hops - 1},
                body_bytes=self.body_bytes,
            )
            for dst in range(n_nodes)
            if dst != node_id
        ]


class ShiftingWorkload(Workload):
    """Three workload regimes chained in one run: bursty → steady →
    client-server.

    The regime a message belongs to travels *in its payload* (purity:
    replay regenerates the same phases), and each phase hands off to the
    next when its hop budget dies:

    * **bursty** — all-to-all bursts of large bodies
      (``bursty_body_bytes``), thinned like :class:`AllToAllWorkload`.
      A dying burst chain seeds one steady chain.
    * **steady** — sparse uniform forwarding of small bodies for
      ``steady_hops`` hops.  An expiring steady chain turns its holder
      into a client of ``server``.
    * **client-server** — ``requests`` request/reply exchanges against
      ``server``, which externalises a receipt per request (an output
      commit each).

    The phases deliberately favour *different* logging protocols (big
    bodies punish receiver-side data logging; sparse small bodies favour
    asynchronous determinant records; a hot output-committing server
    favours synchronous logging), which is what the adaptive stack's E14
    benchmark sweeps.
    """

    def __init__(
        self,
        bursty_hops: int = 6,
        steady_hops: int = 40,
        requests: int = 8,
        server: int = 0,
        seed: int = 0,
        body_bytes: int = 96,
        bursty_body_bytes: int = 4096,
        steady_one_in: int = 1,
    ) -> None:
        super().__init__(seed, body_bytes)
        if bursty_hops < 0 or steady_hops < 0 or requests < 0:
            raise ValueError("bursty_hops, steady_hops and requests must be >= 0")
        if steady_one_in < 1:
            raise ValueError("steady_one_in must be >= 1")
        self.bursty_hops = bursty_hops
        self.steady_hops = steady_hops
        self.requests = requests
        self.server = server
        self.bursty_body_bytes = bursty_body_bytes
        self.steady_one_in = steady_one_in

    def _workers(self, node_id: int, n_nodes: int) -> List[int]:
        """Peers of ``node_id`` excluding the server (the server only
        sees client-server traffic once ``n_nodes`` permits it)."""
        workers = [
            dst for dst in range(n_nodes)
            if dst != node_id and (dst != self.server or n_nodes <= 2)
        ]
        return workers

    def _pick_worker(self, node_id: int, n_nodes: int, *parts: Any) -> int:
        workers = self._workers(node_id, n_nodes)
        return workers[self._choice(len(workers), node_id, *parts)]

    def initial_sends(self, node_id: int, n_nodes: int) -> List[Send]:
        if node_id == self.server and n_nodes > 2:
            return []
        return [
            Send(
                dst=dst,
                payload={"phase": "bursty", "origin": node_id, "hops": self.bursty_hops},
                body_bytes=self.bursty_body_bytes,
            )
            for dst in self._workers(node_id, n_nodes)
        ]

    def _start_client(self, node_id: int, n_nodes: int) -> List[Send]:
        if self.requests == 0 or node_id == self.server:
            return []
        return [
            Send(
                dst=self.server,
                payload={
                    "phase": "cs",
                    "op": "request",
                    "client": node_id,
                    "remaining": self.requests,
                },
                body_bytes=self.body_bytes,
            )
        ]

    def on_deliver(
        self,
        node_id: int,
        n_nodes: int,
        rsn: int,
        sender: int,
        payload: Dict[str, Any],
    ) -> List[Send]:
        phase = payload.get("phase")
        if phase == "bursty":
            hops = payload.get("hops", 0)
            if hops <= 0 or n_nodes < 2:
                # the burst dies; one in ``steady_one_in`` dying bursts
                # seeds a steady chain, thinning traffic phase-to-phase
                if self._choice(self.steady_one_in, "seed", node_id, sender, rsn) != 0:
                    return []
                return [
                    Send(
                        dst=self._pick_worker(node_id, n_nodes, "handoff", sender, rsn),
                        payload={
                            "phase": "steady",
                            "chain": f"{node_id}.{rsn}",
                            "hops": self.steady_hops,
                        },
                        body_bytes=self.body_bytes,
                    )
                ]
            workers = self._workers(node_id, n_nodes)
            toss = self._choice(
                len(workers), "burst", node_id, sender, hops,
                stable_payload_repr(payload),
            )
            if toss != 0:
                return []
            return [
                Send(
                    dst=dst,
                    payload={"phase": "bursty", "origin": node_id, "hops": hops - 1},
                    body_bytes=self.bursty_body_bytes,
                )
                for dst in workers
            ]
        if phase == "steady":
            hops = payload.get("hops", 0)
            if hops <= 0 or n_nodes < 2:
                # the chain expires; its holder becomes a client
                return self._start_client(node_id, n_nodes)
            chain = payload.get("chain", "?")
            return [
                Send(
                    dst=self._pick_worker(node_id, n_nodes, "fwd", chain, hops, sender),
                    payload={"phase": "steady", "chain": chain, "hops": hops - 1},
                    body_bytes=self.body_bytes,
                )
            ]
        if phase == "cs":
            op = payload.get("op")
            if node_id == self.server and op == "request":
                return [
                    Send(
                        dst=OUTPUT_DST,
                        payload={"receipt_for": payload["client"], "at": rsn},
                        body_bytes=32,
                    ),
                    Send(
                        dst=payload["client"],
                        payload={
                            "phase": "cs",
                            "op": "reply",
                            "client": payload["client"],
                            "remaining": payload["remaining"],
                        },
                        body_bytes=self.body_bytes,
                    ),
                ]
            if node_id != self.server and op == "reply":
                remaining = payload["remaining"] - 1
                if remaining <= 0:
                    return []
                return [
                    Send(
                        dst=self.server,
                        payload={
                            "phase": "cs",
                            "op": "request",
                            "client": node_id,
                            "remaining": remaining,
                        },
                        body_bytes=self.body_bytes,
                    )
                ]
        return []


_WORKLOADS = {
    "token_ring": TokenRingWorkload,
    "uniform": UniformWorkload,
    "client_server": ClientServerWorkload,
    "ping_pong": PingPongWorkload,
    "all_to_all": AllToAllWorkload,
    "shifting": ShiftingWorkload,
}


def make_workload(name: str, **params: Any) -> Workload:
    """Instantiate a workload by name.

    ``name`` is one of ``token_ring``, ``uniform``, ``client_server``,
    ``ping_pong``, ``all_to_all``, ``shifting``.
    """
    try:
        cls = _WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(_WORKLOADS)}"
        ) from None
    return cls(**params)
