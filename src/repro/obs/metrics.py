"""Named counters, gauges and histograms for one reasoning run.

A :class:`MetricsRegistry` is the aggregate companion to span tracing:
spans answer "where did the time go", metrics answer "how many" for
quantities that are too frequent (or too global) to carry a span each —
round durations, governor stops, source cache traffic.  Everything is standard library, allocation-light, and
driver-thread-only (workers report through span records instead).
"""

from __future__ import annotations

from typing import Any, Dict, Union

Number = Union[int, float]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> Number:
        self.value += amount
        return self.value


class Gauge:
    """Last-set value with a high-water helper (resident-fact peaks)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def set_max(self, value: Number) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Streaming min/max/mean summary (no buckets — this is a run-scoped
    registry, not a long-lived process exporter)."""

    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.minimum: float = float("inf")
        self.maximum: float = float("-inf")

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }


__all__ = ("Counter", "Gauge", "Histogram", "MetricsRegistry", "Number")
