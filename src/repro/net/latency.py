"""Link latency models.

A latency model maps a message size to a one-way delay.  The default used
throughout the reproduction, :class:`AtmLinkModel`, is parameterised after
the paper's testbed: a 155 Mb/s ATM LAN with sub-millisecond propagation
delay and per-message protocol overhead appropriate to mid-90s stacks.
The argument of the paper only needs the *relative* magnitudes to hold
(network round-trips are orders of magnitude cheaper than stable-storage
access or failure detection).  :class:`LatencyModel` is the seam a test
substitutes a fixed or drawn delay through.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class LatencyModel(ABC):
    """Maps ``(size_bytes, rng)`` to a one-way message delay in seconds."""

    @abstractmethod
    def sample(self, size_bytes: int, rng: random.Random) -> float:
        """One-way delay for a message of ``size_bytes``."""

    def __call__(self, size_bytes: int, rng: random.Random) -> float:
        return self.sample(size_bytes, rng)


class BandwidthLatency(LatencyModel):
    """``propagation + overhead + size / bandwidth`` with optional jitter.

    Parameters
    ----------
    bandwidth_bps:
        Link bandwidth in *bits* per second.
    propagation:
        Speed-of-light plus switching delay, in seconds.
    per_message_overhead:
        Fixed protocol-stack cost per message (send + receive path), in
        seconds.
    jitter_fraction:
        If non-zero, the total is multiplied by a uniform factor in
        ``[1, 1 + jitter_fraction]``.
    """

    def __init__(
        self,
        bandwidth_bps: float,
        propagation: float = 0.0,
        per_message_overhead: float = 0.0,
        jitter_fraction: float = 0.0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps!r}")
        if propagation < 0 or per_message_overhead < 0 or jitter_fraction < 0:
            raise ValueError("propagation, overhead and jitter must be non-negative")
        self.bandwidth_bps = bandwidth_bps
        self.propagation = propagation
        self.per_message_overhead = per_message_overhead
        self.jitter_fraction = jitter_fraction

    def sample(self, size_bytes: int, rng: random.Random) -> float:
        transmission = (size_bytes * 8.0) / self.bandwidth_bps
        total = self.propagation + self.per_message_overhead + transmission
        if self.jitter_fraction > 0:
            total *= rng.uniform(1.0, 1.0 + self.jitter_fraction)
        return total

    def __repr__(self) -> str:
        return (
            f"BandwidthLatency(bandwidth_bps={self.bandwidth_bps!r}, "
            f"propagation={self.propagation!r}, "
            f"per_message_overhead={self.per_message_overhead!r})"
        )


class AtmLinkModel(BandwidthLatency):
    """The paper's testbed link: 155 Mb/s ATM, mid-90s protocol stack.

    Defaults: 155 Mb/s bandwidth, 50 microseconds propagation/switching,
    and 250 microseconds of per-message software overhead, which puts the
    one-way latency of a small control message in the few-hundred-
    microsecond range -- consistent with the paper's observation that the
    extra recovery communication costs "about milliseconds" in total.
    """

    DEFAULT_BANDWIDTH_BPS = 155e6
    DEFAULT_PROPAGATION = 50e-6
    DEFAULT_OVERHEAD = 250e-6

    def __init__(
        self,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation: float = DEFAULT_PROPAGATION,
        per_message_overhead: float = DEFAULT_OVERHEAD,
        jitter_fraction: float = 0.1,
    ) -> None:
        super().__init__(bandwidth_bps, propagation, per_message_overhead, jitter_fraction)

    def __repr__(self) -> str:
        return "AtmLinkModel()"
