#!/usr/bin/env python3
"""Summarise A/B records of the perf harness, one row per workload × metric.

Usage::

    python3 scripts/ab_verdict.py docs/ab/PR41.jsonl
    python3 scripts/ab_verdict.py docs/ab/*.jsonl

Each line of a record is one ``benchmarks/perf/run.py`` run with its
``workload``, ``seed``, ``trace``, ``batch``, ``pair``, ``side``
(``parent`` or ``change``) and ``metrics``.  Untraced runs carry the
end-to-end metrics; traced ones are skipped.  A pair is the two untraced
runs of one workload and seed that share a batch and a pair number.  For
every workload (and seed, when a record has more than one for it) and
every end-to-end metric ``BENCHMARK.json`` declares (its ``better`` and
``bound`` are read there, never written), a Markdown row gives:

* the number of pairs;
* the parent's and the change's medians, and the change's Δ %;
* in how many pairs the change is ahead (k/n);
* the parent's interquartile range
  (``statistics.quantiles(method="inclusive")``);
* whether the result is resolved: |change − parent median| > parent IQR;
* whether the change's median is within the metric's bound.

Exits 1 when a row is out of its bound, or (naming the record) when a
run is not one of a complete parent/change pair or lacks a field.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
HEADER = ("| workload | metric | pairs | parent | change | Δ % | ahead "
          "| parent IQR | resolved | in bound |\n"
          "|---|---|---|---|---|---|---|---|---|---|")


def fmt(value: float, digits: int = 3) -> str:
    """``value`` to ``digits`` significant figures, without an exponent."""
    if abs(value) >= 10 ** digits:
        return f"{value:.0f}"
    return f"{value:#.{digits}g}".rstrip(".")


def pairs_of(runs: List[dict]) -> Dict[tuple, List[Tuple[dict, dict]]]:
    """``(workload, seed) -> [(parent metrics, change metrics)]`` over the
    untraced runs, in pair order."""
    sides: Dict[tuple, Dict[str, dict]] = defaultdict(dict)
    for run in runs:
        if run["trace"]:
            continue
        key = (run["workload"], run["seed"], run["batch"], run["pair"])
        if run["side"] not in SIDES or run["side"] in sides[key]:
            raise ValueError(f"{key}: unexpected side {run['side']!r}")
        sides[key][run["side"]] = run["metrics"]
    pairs: Dict[tuple, List[Tuple[dict, dict]]] = defaultdict(list)
    for key in sorted(sides):
        if len(sides[key]) != len(SIDES):
            raise ValueError(f"{key}: only the {sorted(sides[key])} side")
        pairs[key[:2]].append((sides[key]["parent"], sides[key]["change"]))
    return pairs


def verdict(pairs: List[Tuple[dict, dict]], name: str, better: str,
            bound: float) -> dict:
    """One metric's numbers over ``pairs``."""
    parent = [p[name] for p, _ in pairs]
    change = [c[name] for _, c in pairs]
    sign = 1 if better == "higher" else -1
    base, now = statistics.median(parent), statistics.median(change)
    quartiles = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else (base, base, base))
    iqr = quartiles[2] - quartiles[0]
    return {
        "pairs": len(pairs), "parent": base, "change": now,
        "delta_pct": (now - base) / base * 100 if base else 0.0,
        "ahead": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent_iqr": iqr, "resolved": abs(now - base) > iqr,
        "in_bound": sign * (now - base) >= -bound * abs(base),
    }


def table(path: Path, declared: dict) -> Tuple[List[str], int]:
    """The Markdown rows for one record, and how many are out of bound."""
    runs = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    pairs = pairs_of(runs)
    order = {w["name"]: i for i, w in enumerate(declared["workloads"])}
    seeds = defaultdict(int)
    for workload, _ in pairs:
        seeds[workload] += 1
    rows = [f"### {path.name}", "", HEADER]
    out_of_bound = 0
    for workload, seed in sorted(pairs, key=lambda key: (
            order.get(key[0], len(order)), key)):
        label = (workload if seeds[workload] == 1
                 else f"{workload} (seed {seed})")
        for metric in declared["end_to_end"]:
            v = verdict(pairs[workload, seed], metric["name"],
                        metric["better"], metric["bound"])
            out_of_bound += not v["in_bound"]
            rows.append(
                f"| {label} | {metric['name']} | {v['pairs']} "
                f"| {fmt(v['parent'])} | {fmt(v['change'])} "
                f"| {v['delta_pct']:+.1f} | {v['ahead']}/{v['pairs']} "
                f"| {fmt(v['parent_iqr'], 2)} "
                f"| {'yes' if v['resolved'] else 'no'} "
                f"| {'yes' if v['in_bound'] else 'NO'} |")
    return rows, out_of_bound


def main(paths: List[str]) -> int:
    if not paths:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for path in map(Path, paths):
        try:
            rows, out_of_bound = table(path, declared)
        except (KeyError, ValueError) as exc:
            sys.stderr.write(f"{path}: {exc!r}\n")
            status = 1
            continue
        print("\n".join(rows) + "\n")
        status |= out_of_bound > 0
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
