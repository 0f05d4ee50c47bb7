"""Dimensional metrics: counters and gauges.

:class:`MetricsRegistry` is where every countable event of a run lands,
once, at the site where it happens: each instrument carries a name plus
sorted ``(label, value)`` dimensions, so the fabric attributes a drop to
*which* message kind, *which* fault cause and *which* direction.  The
flat aggregates every experiment reads
(:class:`repro.overlay.network.NetworkStats`) are a read-only view
derived from these counters, not a second set of books.

Everything here is pure bookkeeping — no randomness, no wall-clock reads;
wall-clock profiling is ``Tracer(wall_clock=True)``'s job
(:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple

__all__ = ["Counter", "Gauge", "MetricsRegistry"]

LabelItems = Tuple[Tuple[str, Any], ...]


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


class MetricsRegistry:
    """Get-or-create registry of labelled instruments.

    Instruments are never removed: hot paths resolve a handle once and
    bump its ``value`` directly.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, LabelItems], Any] = {}
        self._families: Dict[str, List[Any]] = {}

    # -- instrument accessors -------------------------------------------------

    def _get(self, kind: str, factory, name: str, labels: Dict[str, Any]):
        key = (kind, name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[2])
            self._instruments[key] = instrument
            self._families.setdefault(name, []).append(instrument)
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Shorthand: bump a counter by ``amount``."""
        self.counter(name, **labels).inc(amount)

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
