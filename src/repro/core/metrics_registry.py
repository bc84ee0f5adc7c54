"""A registry of named run metrics: counters, gauges, histograms.

The registry is the one namespace a run's metrics are reported under.
It is not a second count: ``System.summarize`` writes each counter once,
from the count of record (``NetworkStats``, ``StableStorageStats``, the
recovery episodes), and only histograms are fed while the run goes:

* :class:`Counter` — monotone totals (``net.messages_sent``);
* :class:`Gauge` — last-written level (``transport.inflight``), with the
  high-water mark kept alongside;
* :class:`Histogram` — latency/size distributions with p50/p95/max
  (``storage.write_latency``, ``recovery.episode_duration``).

Names are dotted ``subsystem.metric`` strings; :meth:`Registry.snapshot`
is JSON-able and can be taken mid-run (a snapshot never mutates state),
which is how ``RunResult.extra['metrics']`` and ``repro.analysis.report``
consume it.

Like the span and profiler layers, everything here is host-side
bookkeeping: observing a value schedules nothing on the simulator and
draws no randomness, so registering metrics can never perturb a run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

_SUBSYSTEMS = ("net", "transport", "storage", "protocol", "recovery", "sim")


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set level, with its high-water mark."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "high_water": self.high_water}


class Histogram:
    """Sample distribution summarized as count/sum/p50/p95/max.

    Keeps the raw samples (runs here are at most a few hundred thousand
    observations); percentile computation is deferred to snapshot time
    so observation stays O(1).
    """

    __slots__ = ("name", "samples", "_sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []
        self._sum = 0.0

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self._sum += value

    @property
    def count(self) -> int:
        return len(self.samples)

    def snapshot(self) -> Dict[str, Any]:
        ordered = sorted(self.samples)
        n = len(ordered)
        return {
            "type": "histogram",
            "count": n,
            "sum": self._sum,
            "mean": (self._sum / n) if n else 0.0,
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "max": ordered[-1] if n else 0.0,
        }


class MetricsRegistry:
    """Namespace of metrics keyed ``subsystem.metric``.

    ``register_*`` is idempotent: asking twice for the same name returns
    the same instrument (so call sites don't need to coordinate), but a
    name can only ever be one type.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _register(self, name: str, cls: type) -> Any:
        subsystem, _, metric = name.partition(".")
        if not metric or not subsystem:
            raise ValueError(f"metric name must be 'subsystem.metric', got {name!r}")
        if subsystem not in _SUBSYSTEMS:
            raise ValueError(
                f"unknown subsystem {subsystem!r} in {name!r}; "
                f"choose from {_SUBSYSTEMS}"
            )
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        instrument = cls(name)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._register(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._register(name, Histogram)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self, subsystem: Optional[str] = None) -> List[str]:
        if subsystem is None:
            return sorted(self._metrics)
        prefix = subsystem + "."
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def snapshot(self, subsystem: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
        """JSON-able state of every (or one subsystem's) metric.

        Safe to call mid-run; reading never mutates the instruments.
        """
        return {
            name: self._metrics[name].snapshot()
            for name in self.names(subsystem)
        }

    # ------------------------------------------------------------------
    # cross-trial merging (repro.runner)
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Dict[str, Any]]:
        """Mergeable, picklable state of every metric.

        Unlike :meth:`snapshot` this keeps histograms' raw samples, so
        dumps from independent trials can be combined *exactly* with
        :meth:`merge` -- percentiles of the merged distribution, not an
        average of per-trial percentiles.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            instrument = self._metrics[name]
            if isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {
                    "type": "gauge",
                    "value": instrument.value,
                    "high_water": instrument.high_water,
                }
            else:
                out[name] = {
                    "type": "histogram",
                    "samples": list(instrument.samples),
                }
        return out

    @classmethod
    def merge(cls, dumps: List[Dict[str, Dict[str, Any]]]) -> "MetricsRegistry":
        """Combine per-trial :meth:`dump` outputs into one registry.

        Counters sum; gauges sum their values and take the max
        high-water; histograms concatenate raw samples.  Merging is done
        strictly in the order given (the runner passes dumps in spec
        order), so the result is identical however the trials were
        scheduled.
        """
        merged = cls()
        for dump in dumps:
            for name, state in dump.items():
                kind = state["type"]
                if kind == "counter":
                    merged.counter(name).inc(state["value"])
                elif kind == "gauge":
                    gauge = merged.gauge(name)
                    gauge.value += state["value"]
                    if state["high_water"] > gauge.high_water:
                        gauge.high_water = state["high_water"]
                elif kind == "histogram":
                    histogram = merged.histogram(name)
                    for sample in state["samples"]:
                        histogram.observe(sample)
                else:  # pragma: no cover - corrupt dump
                    raise ValueError(f"unknown metric type {kind!r} for {name!r}")
        return merged

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"
