"""Result-table collection for the experiment harness.

pytest captures stdout, so experiment tables reported with ``print`` would
be lost in ``--benchmark-only`` runs.  Experiments instead call
:func:`report_table`; the conftest's ``pytest_terminal_summary`` hook prints
everything after the run (that channel is never captured), and every table
is also written to ``benchmarks/results/<experiment>.txt`` for EXPERIMENTS.md.

A run with any ``REPRO_E*_SCALE=smoke`` variable set writes under the
git-ignored ``benchmarks/results/smoke/`` instead, so a shrunken table can
never be committed in place of the documented-scale one (it happened to
E12, E17 and E19).
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Sequence, Tuple

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_SCALE_VAR = re.compile(r"REPRO_E\w+_SCALE")

#: experiment id -> rendered table text, in report order
TABLES: "Dict[str, str]" = {}


def _render(title: str, headers: Sequence[str],
            rows: Sequence[Sequence[object]], note: str = "") -> str:
    columns = [headers] + [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(str(row[i])) for row in columns)
              for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in columns[1:]:
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def percentiles(values: Sequence[float]) -> Tuple[float, float]:
    """``(p50, p99)`` of ``values``, nearest-rank on the sorted list."""
    ordered = sorted(values)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return p50, p99


def results_dir() -> str:
    """Where this run's result files go (created on demand)."""
    smoke = any(_SCALE_VAR.fullmatch(name) and value.lower() == "smoke"
                for name, value in os.environ.items())
    path = os.path.join(_RESULTS_DIR, "smoke") if smoke else _RESULTS_DIR
    os.makedirs(path, exist_ok=True)
    return path


def _record(experiment: str, text: str) -> str:
    TABLES[experiment] = text
    with open(os.path.join(results_dir(), f"{experiment}.txt"),
              "w") as handle:
        handle.write(text + "\n")
    return text


def report_table(experiment: str, title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]], note: str = "") -> str:
    """Record one experiment table; returns the rendered text."""
    return _record(experiment, _render(title, headers, rows, note))


def report_observability(experiment: str, title: str, tracer,
                         metrics=None, note: str = "") -> str:
    """Record a traced run: cost-breakdown table + flamegraph appendix.

    The table body comes from :func:`repro.obs.export.cost_breakdown`
    (deterministic at a fixed seed when wall profiling is off); the
    flame summary rides along under the table so the results file shows
    where the virtual time went, span path by span path.
    """
    from repro.obs.export import cost_breakdown, flame_summary, metrics_rows

    headers, rows = cost_breakdown(tracer)
    appendix = flame_summary(tracer, min_cost=0.0)
    if metrics is not None:
        m_headers, m_rows = metrics_rows(metrics)
        appendix += "\n\n" + _render(f"{experiment} metrics",
                                     m_headers, m_rows)
    text = _render(title, headers, rows, note)
    return _record(experiment, text + "\n\n" + appendix)
