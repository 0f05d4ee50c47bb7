"""Observability fabric: virtual-time tracing, metrics, and exporters.

The paper's cost claims (who pays for lookup, group creation, revocation
under each architecture) are quantitative claims about *where time and
messages go*; this package is the layer that answers them:

* :mod:`repro.obs.trace`   — hierarchical spans keyed to virtual sim time
  (:class:`Tracer`), with a near-zero-cost :class:`NoopTracer` default;
* :mod:`repro.obs.metrics` — labelled counters and gauges
  (:class:`MetricsRegistry`): the one store of event counts, which the
  flat ``NetworkStats`` aggregates are a read-only view of;
* :mod:`repro.obs.export`  — JSONL trace dumps, flamegraph-style text
  summaries, and ``report_table``-compatible metric/breakdown tables.

Deterministic by construction: span ids, virtual timestamps, and counter
values are pure functions of the seed; anything wall-clock lives in
segregated fields the deterministic exporters never emit.

The :class:`repro.fabric.Fabric` context object bundles a tracer and a
registry with the simulator/network/channel stack and injects them into
every subsystem — see docs/observability.md for the migration guide.
"""

from repro.obs.export import (DOSN_PHASES, cost_breakdown, flame_summary,
                              metrics_rows, trace_to_jsonl)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.trace import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "Counter", "DOSN_PHASES", "Gauge", "MetricsRegistry", "NOOP_TRACER",
    "NoopTracer", "Span", "Tracer",
    "cost_breakdown", "flame_summary", "metrics_rows", "trace_to_jsonl",
]
