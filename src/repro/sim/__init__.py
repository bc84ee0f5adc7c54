"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event kernel on which the
whole reproduction runs: a virtual clock driven by an event heap
(:mod:`repro.sim.kernel`), cancellable timers (:mod:`repro.sim.timers`),
named deterministic random streams (:mod:`repro.sim.rng`) and a structured
trace/metric recorder (:mod:`repro.sim.trace`).

The kernel replaces the paper's physical testbed (eight DEC 5000/200
workstations on a 155 Mb/s ATM network).  All timing phenomena the paper
measures -- blocked time of live processes, recovery duration, message
latencies, stable-storage stalls -- are reproduced under the virtual clock,
which additionally makes every experiment exactly repeatable from a seed.
"""
