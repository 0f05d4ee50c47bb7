#!/usr/bin/env python3
"""Profile the measured phase of one perf workload, by self time.

Usage::

    python3 scripts/profile_workload.py quorum_full_stack
    python3 scripts/profile_workload.py social_dht_bare --seed 12 --top 40
    python3 scripts/profile_workload.py overlay_kv --scale smoke

Builds the workload exactly as ``benchmarks/perf/run.py`` does, switches
``cProfile`` on when set-up ends (set-up never shows) and runs the pinned
op prefix once (``--seconds 0``).  Prints the pass's outcome digest —
equal to ``run.py``'s for the same seed and scale, under any
``PYTHONHASHSEED``, so a profile names the behaviour it measured — and
the ``--top`` functions by self time.  The profiler slows the run
about twofold and evenly enough to rank functions, not to time them:
take wall-clock numbers from ``run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "benchmarks" / "perf"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(PERF), str(ROOT / "src")]
    import harness
    import tracing
    import workloads
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; pick from "
                     f"{', '.join(sorted(workloads.WORKLOADS))}")

    profiler = cProfile.Profile()

    class Profiling(tracing.NullRecorder):
        """Untraced, but the profiler starts where the measured phase does."""

        def begin_measured(self) -> None:
            profiler.enable()

    try:
        result = harness.run_pass(cls, args.seed, args.scale, 0.0,
                                  Profiling())
    finally:
        profiler.disable()
    print(f"workload {cls.name}  seed {args.seed}  scale {args.scale}  "
          f"ops {result.ops}  failed {result.failed}  "
          f"outcome_digest {result.digest[:16]}")
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats("tottime").print_stats(args.top)
    print(out.getvalue().strip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
