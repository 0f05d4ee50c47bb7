"""Exporters: JSONL traces, flamegraph-style text, and metrics tables.

Three consumers, three formats:

* :func:`trace_to_jsonl` — one JSON object per finished span, in
  completion order, ``sort_keys=True``.  Deterministic byte-for-byte at a
  fixed seed; wall-clock fields are excluded unless ``include_wall=True``
  (the acceptance gate for E13 diffs two runs of this output);
* :func:`flame_summary` — an indented tree aggregated by span path with
  inclusive/self virtual cost, for humans reading a benchmark log;
* :func:`metrics_rows` — ``(headers, rows)`` ready for
  ``benchmarks._reporting.report_table``;
* :func:`cost_breakdown` — the per-phase table (route vs fetch vs decrypt
  vs verify) the E13 experiment reports, built from real spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = ["trace_to_jsonl", "flame_summary", "metrics_rows",
           "cost_breakdown", "DOSN_PHASES"]


# -- JSONL ---------------------------------------------------------------------

def trace_to_jsonl(tracer: Tracer, path: Optional[str] = None,
                   include_wall: bool = False) -> str:
    """Serialize finished spans; optionally also write them to ``path``.

    ``include_wall=False`` (the default) keeps the output a pure function
    of the seed: ``wall_ns`` is the only nondeterministic span field and
    it is dropped here, not zeroed — so a diff cannot even see that wall
    profiling was on.
    """
    lines = []
    for span in tracer.spans:
        record: Dict[str, Any] = {
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": round(span.start, 9),
            "end": round(span.end if span.end is not None else span.start, 9),
            "cost": round(span.cost, 9),
            "attrs": span.attrs,
        }
        if include_wall and span.wall_ns is not None:
            record["wall_ns"] = span.wall_ns
        lines.append(json.dumps(record, sort_keys=True))
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


# -- flamegraph-style summary --------------------------------------------------

def _span_paths(spans: Sequence[Span]) -> Dict[int, Tuple[str, ...]]:
    """span id -> root-to-span name path."""
    by_id = {span.span_id: span for span in spans}
    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: Span) -> Tuple[str, ...]:
        cached = paths.get(span.span_id)
        if cached is not None:
            return cached
        if span.parent_id is None or span.parent_id not in by_id:
            result: Tuple[str, ...] = (span.name,)
        else:
            result = path_of(by_id[span.parent_id]) + (span.name,)
        paths[span.span_id] = result
        return result

    for span in spans:
        path_of(span)
    return paths


def flame_summary(tracer: Tracer, min_cost: float = 0.0) -> str:
    """Aggregate spans by path; print an indented cost tree.

    ``cost`` is inclusive of synchronously nested children (the tracer
    rolls it up), so self cost is inclusive minus the children's inclusive
    sum.  Paths cheaper than ``min_cost`` virtual seconds are elided.
    """
    spans = tracer.spans
    if not spans:
        return "(no spans recorded)"
    paths = _span_paths(spans)
    inclusive: Dict[Tuple[str, ...], float] = defaultdict(float)
    counts: Dict[Tuple[str, ...], int] = defaultdict(int)
    for span in spans:
        path = paths[span.span_id]
        inclusive[path] += span.cost
        counts[path] += 1
    child_sums: Dict[Tuple[str, ...], float] = defaultdict(float)
    for path, cost in inclusive.items():
        if len(path) > 1:
            child_sums[path[:-1]] += cost
    lines = [f"{'virtual s':>10}  {'self s':>10}  {'count':>7}  span path"]
    for path in sorted(inclusive,
                       key=lambda p: (-inclusive[p[:1]], p)):
        cost = inclusive[path]
        if cost < min_cost and len(path) > 1:
            continue
        self_cost = cost - child_sums.get(path, 0.0)
        if abs(self_cost) < 1e-9:  # float-summation noise, not real cost
            self_cost = 0.0
        indent = "  " * (len(path) - 1)
        lines.append(f"{cost:>10.4f}  {self_cost:>10.4f}  "
                     f"{counts[path]:>7}  {indent}{path[-1]}")
    return "\n".join(lines)


# -- metrics table -------------------------------------------------------------

def metrics_rows(metrics: MetricsRegistry
                 ) -> Tuple[List[str], List[List[object]]]:
    """Flatten a registry into ``report_table``-compatible rows: one per
    labelled counter or gauge, in the registry's deterministic order."""
    headers = ["Metric", "Labels", "Kind", "Value"]
    rows: List[List[object]] = [
        [instrument.name,
         ", ".join(f"{k}={v}" for k, v in instrument.labels),
         instrument.kind, instrument.value]
        for instrument in metrics]
    return headers, rows


# -- per-phase cost breakdown (experiment E13) ---------------------------------

#: Default phase attribution for the DOSN stack: leaf span -> phase.
#: RPC spans are classified by their ``kind`` attribute, crypto spans by
#: name — matching how the overlay and user layers tag their work.
DOSN_PHASES: Dict[str, Callable[[Span], bool]] = {
    "route hops": lambda s: s.name == "net.rpc" and s.attrs.get("kind") in
    ("chord_step", "chord_final", "chord_stabilize", "kad_find"),
    "storage fetch": lambda s: s.name == "net.rpc" and s.attrs.get("kind") in
    ("chord_replica_read", "chord_replicate", "kad_store"),
    "decrypt": lambda s: s.name == "crypto.decrypt",
    "verify": lambda s: s.name == "crypto.verify",
    "encrypt": lambda s: s.name == "crypto.encrypt",
    "sign": lambda s: s.name == "crypto.sign",
}


def cost_breakdown(tracer: Tracer,
                   phases: Optional[Mapping[str, Callable[[Span], bool]]]
                   = None) -> Tuple[List[str], List[List[object]]]:
    """Attribute leaf-span cost to named phases.

    Returns ``(headers, rows)``: spans matched, accounted virtual seconds,
    and wall milliseconds.  The wall column is ``-`` when no span carried
    wall measurements, so the deterministic table stays byte-stable with
    wall profiling off.
    """
    phases = DOSN_PHASES if phases is None else phases
    headers = ["Phase", "Spans", "Virtual s", "Wall ms"]
    rows: List[List[object]] = []
    for phase_name, matches in phases.items():
        count = 0
        virtual = 0.0
        wall_ns = 0
        any_wall = False
        for span in tracer.spans:
            if not matches(span):
                continue
            count += 1
            virtual += span.cost
            if span.wall_ns is not None:
                wall_ns += span.wall_ns
                any_wall = True
        rows.append([phase_name, count, round(virtual, 6),
                     f"{wall_ns / 1e6:.2f}" if any_wall else "-"])
    return headers, rows
