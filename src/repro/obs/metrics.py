"""Metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat name -> instrument map; names are
dotted paths (``sat.solver.conflicts``).  The module-level helpers
(:func:`inc`, :func:`set_gauge`, :func:`observe`) write to the active
session's registry and cost one ``is None`` test when observability is
disabled, so instrumented code can call them unconditionally.

Histograms use *fixed* bucket boundaries chosen at creation (the
Prometheus model): observation is O(#buckets) worst case with no
allocation, and snapshots are mergeable across runs — which is what the
benchmark-harness dump (``BENCH_obs.json``) needs to chart perf
trajectories between PRs.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import context as _obs

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_TIME_BUCKETS", "inc", "set_gauge", "observe",
           "snapshot", "histogram_snapshot", "histogram_from_snapshot"]

#: Default histogram boundaries for durations in seconds: 100us .. 100s,
#: roughly 1-2-5 per decade.  The final +inf bucket is implicit.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A value that can move both ways (peak queue depth, clause count)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def max(self, value: Union[int, float]) -> None:
        """Keep the high-water mark."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max."""

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must be sorted")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Upper-bound estimate of the *q*-quantile (Prometheus-style).

        Walks the cumulative bucket counts and reports the boundary of
        the bucket containing the target rank, clamped to the observed
        min/max so degenerate distributions (all observations in one
        bucket) stay honest.  None while empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return None
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                estimate = bound
                break
        else:
            estimate = self.max
        if self.max is not None and estimate > self.max:
            estimate = self.max
        if self.min is not None and estimate < self.min:
            estimate = self.min
        return estimate


class MetricsRegistry:
    """Name -> instrument; instruments are created on first touch."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, *args)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument's current state."""
        out: Dict[str, dict] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                out[name] = histogram_snapshot(inst)
            else:
                out[name] = {"kind": inst.kind, "value": inst.value}
        return out


def histogram_snapshot(hist: Histogram) -> dict:
    """JSON-friendly form of one histogram (the registry snapshot entry
    format; also what the serve layer ships over the wire)."""
    return {
        "kind": "histogram",
        "count": hist.count,
        "sum": hist.sum,
        "min": hist.min,
        "max": hist.max,
        "bounds": list(hist.bounds),
        "counts": list(hist.counts),
    }


def histogram_from_snapshot(entry: dict) -> Histogram:
    """Rebuild a :class:`Histogram` from its snapshot entry, so data
    shipped across processes (the ``obs`` op's request-latency
    histogram) can reuse :meth:`Histogram.quantile`."""
    hist = Histogram("snapshot", tuple(entry.get("bounds") or ()))
    counts = list(entry.get("counts") or ())
    if len(counts) == len(hist.counts):
        hist.counts = counts
    hist.count = entry.get("count", 0)
    hist.sum = entry.get("sum", 0.0)
    hist.min = entry.get("min")
    hist.max = entry.get("max")
    return hist


# ----------------------------------------------------------------------
# Module-level conveniences (no-ops while observability is disabled)
# ----------------------------------------------------------------------

def inc(name: str, amount: Union[int, float] = 1) -> None:
    session = _obs.ACTIVE
    if session is not None:
        session.registry.counter(name).inc(amount)


def set_gauge(name: str, value: Union[int, float]) -> None:
    session = _obs.ACTIVE
    if session is not None:
        session.registry.gauge(name).set(value)


def observe(name: str, value: float,
            bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
    session = _obs.ACTIVE
    if session is not None:
        session.registry.histogram(name, bounds).observe(value)


def snapshot() -> Optional[dict]:
    """Snapshot of the active registry, or None when disabled."""
    session = _obs.ACTIVE
    return session.registry.snapshot() if session is not None else None
