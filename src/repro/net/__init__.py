"""Network substrate.

Models the paper's 155 Mb/s ATM LAN as reliable FIFO channels between
simulated nodes over a full-mesh :class:`~repro.net.topology.Topology`,
with each delay drawn from a :class:`~repro.net.latency.LatencyModel`
(the ATM link unless a test substitutes one).
:class:`repro.net.network.Network` is the single message bus the
protocol stack talks to; it tags every message with accounting metadata
so the harness can report message counts and bytes per traffic class
(application, piggyback, recovery control), which is exactly the
quantity the paper argues has lost its primacy.
"""
