#!/usr/bin/env python3
"""Compare two suite results: ``compare.py A.json B.json`` (A is the base).

One row per (workload, end-to-end metric): both medians with their quartiles
over the repeats, the ratio B/A, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the run-to-run spread (interquartile range over median, of
  either side) is wider than the bound, so the medians decide nothing —
  unless every run of one side beats every run of the other.

The simulated metrics and the outcome digest are exact for a seed and are
compared with ``==`` (``ok`` / ``changed``): a change there means behaviour
moved, not speed.  Exit status is 1 when any row is not ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """Judge ``new`` against ``base`` for a host metric."""
    sign = 1.0 if better == "lower" else -1.0
    (b_low, b_mid, b_high), (n_low, n_mid, n_high) = (quartiles(base),
                                                      quartiles(new))
    worse_by = sign * (n_mid - b_mid) / b_mid
    spread = max((b_high - b_low) / b_mid, (n_high - n_low) / n_mid)
    if spread <= bound:
        return "regressed" if worse_by > bound else "ok"
    worst_new, best_new = max(sign * v for v in new), min(sign * v for v in new)
    worst_base, best_base = (max(sign * v for v in base),
                             min(sign * v for v in base))
    if worst_new < best_base:
        return "ok"
    if best_new > worst_base and worse_by > bound:
        return "regressed"
    return "unresolved"


def compare(base: Dict, new: Dict, spec: Dict) -> List[List[str]]:
    """The comparison table, header row first."""
    rows = [["workload", "metric", "A median [q1 .. q3]",
             "B median [q1 .. q3]", "B/A", "verdict"]]

    def cell(values: Sequence[float]) -> str:
        low, mid, high = quartiles(values)
        return f"{mid:.4f} [{low:.4f} .. {high:.4f}]"

    def exact_cell(value) -> str:
        return value[:12] if isinstance(value, str) else f"{value:.4f}"

    for entry in spec["workloads"]:
        name = entry["name"]
        a, b = base["workloads"][name], new["workloads"][name]
        for metric in spec["end_to_end"]:
            va = a["end_to_end"][metric["name"]]
            vb = b["end_to_end"][metric["name"]]
            ratio = statistics.median(vb) / statistics.median(va)
            rows.append([name, metric["name"], cell(va), cell(vb),
                         f"{ratio:.3f} (base {statistics.median(va):.4f} "
                         f"{metric['unit']})",
                         verdict(va, vb, metric["better"], metric["bound"])])
        exact = dict(a["simulated"], outcome_digest=a["digest"])
        exact_new = dict(b["simulated"], outcome_digest=b["digest"])
        for key, value in exact.items():
            rows.append([name, key, exact_cell(value),
                         exact_cell(exact_new[key]), "exact",
                         "ok" if value == exact_new[key] else "changed"])
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    rows = compare(base, new, spec)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(text.ljust(width)
                        for text, width in zip(row, widths)).rstrip())
    bad = [row for row in rows[1:] if row[-1] != "ok"]
    print(f"{len(rows) - 1} rows, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
