"""Write ``docs/performance.md``'s "Host time" table from the trajectory.

Usage::

    python scripts/host_time.py            # rewrite the table in place
    python scripts/host_time.py --check    # exit 1 if it is out of date

One row per committed ``BENCH_<pr>.json`` at the repo root, in PR
order; per workload of ``BENCHMARK.json`` the median over the run's
repeats of ``ops_per_s``, ``op_p50_ms`` and ``peak_rss_mb``.  The table
sits between two HTML comment markers in the doc and is the only text
this script writes; it reads the ``BENCH_<pr>.json`` files and never
writes under ``benchmarks/perf``.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import textwrap
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "performance.md"
BEGIN = "<!-- host-time table: scripts/host_time.py writes this -->"
END = "<!-- end of host-time table -->"
NOTE = (
    "Each cell is `ops_per_s` · `op_p50_ms` · `peak_rss_mb`, the median "
    "of the run's untraced passes (seed {seed}, a {seconds} s window on "
    "the host each file's `environment` names).  Peak RSS tracks the ops "
    "a fixed window holds: a faster build completes more operations in "
    "the same seconds and keeps what they store, so a row whose RSS rose "
    "beside a throughput gain is not by itself a memory regression; "
    "compare memory at equal work.")


def benches(root: Path = ROOT) -> List[tuple]:
    """``(pr, path)`` of every ``BENCH_<pr>.json`` in ``root``, by PR."""
    return sorted((int(match.group(1)), path)
                  for path in root.glob("BENCH_*.json")
                  if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name)))


def _cell(end_to_end: Dict[str, List[float]]) -> str:
    ops, p50, rss = (statistics.median(end_to_end[metric]) for metric in
                     ("ops_per_s", "op_p50_ms", "peak_rss_mb"))
    return f"{ops:,.0f} · {p50:.3f} · {rss:.1f}".replace(",", " ")


def table(root: Path = ROOT) -> str:
    """The block between the markers, markers included."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    rows = ["| PR | " + " | ".join(f"`{name}`" for name in workloads) + " |",
            "|---|" + "---|" * len(workloads)]
    seeds = set()
    for pr, path in benches(root):
        run = json.loads(path.read_text())
        seeds.add(run["seed"])
        rows.append(f"| {pr} | " + " | ".join(
            _cell(run["workloads"][name]["end_to_end"])
            if name in run["workloads"] else "—" for name in workloads)
            + " |")
    note = textwrap.fill(NOTE.format(
        seed="/".join(str(seed) for seed in sorted(seeds)),
        seconds=spec["run_seconds"]), width=72)
    return "\n".join([BEGIN, "", *rows, "", note, "", END])


def rewrite(text: str, block: str) -> str:
    """``text`` with the marked block replaced by ``block``."""
    start, stop = text.find(BEGIN), text.find(END)
    if start < 0 or stop < start:
        raise ValueError(f"{DOC.name} lacks the host-time markers")
    return text[:start] + block + text[stop + len(END):]


def main(argv: List[str]) -> int:
    current = DOC.read_text()
    wanted = rewrite(current, table())
    if "--check" in argv:
        if wanted != current:
            sys.stderr.write(f"{DOC.relative_to(ROOT)}'s Host time table "
                             "is stale: run python scripts/host_time.py\n")
            return 1
        print("host-time table up to date")
        return 0
    DOC.write_text(wanted)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
