"""Dimensional metrics: counters, gauges, and fixed-bucket histograms.

:class:`MetricsRegistry` is where every countable event of a run lands,
once, at the site where it happens: each instrument carries a name plus
sorted ``(label, value)`` dimensions, so the fabric attributes a drop to
*which* message kind, *which* fault cause and *which* direction.  The
flat aggregates every experiment reads
(:class:`repro.overlay.network.NetworkStats`) are a read-only view
derived from these counters, not a second set of books.

Histograms use fixed bucket bounds, so merging and percentile estimation
are deterministic and O(buckets); :meth:`Histogram.percentile` linearly
interpolates inside the winning bucket (the classic Prometheus
``histogram_quantile`` estimator).

Everything here is pure bookkeeping — no randomness, no wall-clock reads;
wall-clock profiling is ``Tracer(wall_clock=True)``'s job
(:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

LabelItems = Tuple[Tuple[str, Any], ...]

#: Default bounds for virtual-seconds histograms (latency-shaped).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depths, ring sizes)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with deterministic percentile estimation.

    ``bounds`` are inclusive upper edges; an implicit +inf bucket catches
    the overflow.  ``observe`` is O(buckets) via linear scan — bounds are
    short tuples, and the scan beats bisect's call overhead at this size.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "minimum", "maximum")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile, ``p`` in [0, 100].

        Linear interpolation inside the winning bucket; the overflow
        bucket reports the observed maximum (we track it exactly).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = (p / 100.0) * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if i == len(self.bounds):  # overflow bucket
                    return float(self.maximum)
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
        return float(self.maximum)  # pragma: no cover - rank <= count


class MetricsRegistry:
    """Get-or-create registry of labelled instruments.

    Instruments are never removed: hot paths resolve a handle once and
    bump its ``value`` directly.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, LabelItems], Any] = {}
        self._families: Dict[str, List[Any]] = {}

    # -- instrument accessors -------------------------------------------------

    def _get(self, kind: str, factory, name: str, labels: Dict[str, Any],
             **kwargs: Any):
        key = (kind, name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[2], **kwargs)
            self._instruments[key] = instrument
            self._families.setdefault(name, []).append(instrument)
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._get("histogram", Histogram, name, labels, bounds=bounds)

    def inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Shorthand: bump a counter by ``amount``."""
        self.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BUCKETS,
                **labels: Any) -> None:
        """Shorthand: record one histogram observation."""
        self.histogram(name, bounds=bounds, **labels).observe(value)

    # -- introspection --------------------------------------------------------

    def family(self, name: str) -> Sequence[Any]:
        """Every labelled instrument called ``name``, in creation order."""
        return self._families.get(name, ())

    def __iter__(self) -> Iterator[Any]:
        """Instruments in deterministic (kind, name, labels) order."""
        for key in sorted(self._instruments,
                          key=lambda k: (k[1], k[0], str(k[2]))):
            yield self._instruments[key]

    def get_counter_value(self, name: str, **labels: Any) -> int:
        """Read a counter without creating it (0 when absent)."""
        key = ("counter", name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        return instrument.value if instrument is not None else 0
