"""Fail unless every perf workload still behaves as the newest committed run.

Usage::

    python scripts/check_perf_digests.py                   # all five
    python scripts/check_perf_digests.py social_dht_bare   # just these

Runs each named workload of ``BENCHMARK.json`` (every one when none is
named) once over its pinned prefix
(``benchmarks/perf/run.py --seconds 0 --trace 0``, at that run's seed)
and compares what is exact for a seed — ``outcome_digest`` and the
simulated ``msgs_per_op`` / ``bytes_per_op`` / ``failed_op_ratio`` /
``unverified_served`` — with the newest ``BENCH_<pr>.json`` at the repo
root (the highest PR number), which it only reads.  A speed-up that moved
any of them changed behaviour; exits non-zero naming the workload and the
metric.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "perf" / "run.py"


def newest_bench(root: Path = ROOT) -> Path:
    """The ``BENCH_<pr>.json`` in ``root`` with the highest PR number, by
    number (``BENCH_100`` comes after ``BENCH_45``)."""
    numbered = [(int(match.group(1)), path)
                for path in root.glob("BENCH_*.json")
                if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    if not numbered:
        raise FileNotFoundError(f"no BENCH_<pr>.json in {root}")
    return max(numbered)[1]


def main(names: List[str]) -> int:
    bench = newest_bench()
    baseline = json.loads(bench.read_text())
    print(f"against {bench.name}")
    declared = [w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    unknown = sorted(set(names) - set(declared))
    if unknown:
        sys.stderr.write(f"unknown workload(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(declared)}\n")
        return 2
    workloads = [name for name in declared if not names or name in names]
    drift = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads:
            out = Path(tmp) / f"{name}.json"
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name,
                 "--seed", str(baseline["seed"]), "--seconds", "0",
                 "--trace", "0", "--out", str(out)],
                cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                drift.append(f"{name}: run.py exited {done.returncode}\n"
                             + done.stdout[-2000:] + done.stderr[-2000:])
                continue
            record = json.loads(out.read_text())
            want = baseline["workloads"][name]
            pairs = [("outcome_digest", want["digest"], record["digest"])]
            pairs += [(metric, value, record["simulated"].get(metric))
                      for metric, value in want["simulated"].items()]
            moved = [f"{name}: {metric} {got!r} != {bench.name} {value!r}"
                     for metric, value, got in pairs if got != value]
            drift += moved
            print(f"{name:<20} {'DRIFT' if moved else 'ok'}  "
                  f"{record['digest'][:16]}  ops {record['pinned_ops']}")
    for line in drift:
        sys.stderr.write(line + "\n")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
