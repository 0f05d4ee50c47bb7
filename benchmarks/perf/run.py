#!/usr/bin/env python3
"""Wall-clock benchmark of the reproduction: one command, five workloads.

One workload, one pass, in this process (what ``BENCHMARK.json`` declares)::

    python3 benchmarks/perf/run.py --workload overlay_kv --seed 11 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced pass, ``--trace
1`` the per-layer metrics of a traced pass (plus an untraced twin that the
traced pass must reproduce).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` the script runs the whole suite — every workload
``--repeats`` times untraced and once traced, each pass in a fresh
interpreter — and with ``--out FILE`` writes the collected result there and
one ``trace_<workload>.json`` summary beside it.  ``compare.py`` compares two
such files.

Numbers are sandbox numbers at the repo's ``TOY`` crypto parameters:
relative, not absolute.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` (set iteration order is an input)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _import_harness():
    """The harness modules, with the repo's ``src`` importable."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: the program under test is missing: no "
                 f"{ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import tracing
    import workloads
    return harness, tracing, workloads


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' for the suite")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase of an untraced "
                             "pass (default: BENCHMARK.json's run_seconds; "
                             "0 = the pinned op prefix only)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced passes per workload (suite mode)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the result as JSON to this file")
    return parser.parse_args(argv)


# -- one workload, one pass -------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    harness, tracing, workloads = _import_harness()
    spec = harness.declared()
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        sys.exit(f"run.py: unknown workload {args.workload!r}; pick from "
                 f"{sorted(workloads.WORKLOADS)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.scale == "smoke":
        seconds = 0.0
    record: Dict[str, Any] = {
        "workload": cls.name, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": seconds}
    problems: List[str] = []

    if args.trace:
        # Every pass of a traced run executes the pinned prefix only, so
        # that the three are op-for-op comparable.
        untraced = harness.run_pass(cls, args.seed, args.scale, 0.0)
        recorder = tracing.Recorder()
        installed = tracing.install(recorder, tracing.default_targets(),
                                    tracing.default_counted())
        try:
            result = harness.run_pass(cls, args.seed, args.scale, 0.0,
                                      recorder)
        finally:
            installed.remove()
        tracer_on = None
        if cls is workloads.SocialDhtBare:
            tracer_on = harness.run_pass(workloads.SocialDhtBareTracerOn,
                                         args.seed, args.scale, 0.0)
        for label, other in (("untraced", untraced), ("tracer-on", tracer_on)):
            if other is not None and (
                    other.digest != result.digest
                    or harness.simulated(other) != harness.simulated(result)):
                problems.append(f"traced pass diverged from the {label} pass")
        values = harness.per_layer(untraced, result, recorder, tracer_on)
        names = spec["per_layer"]
        record["trace_summary"] = harness.trace_summary(recorder, result)
    else:
        repeats = harness.SETUP_REPEATS if args.scale == "full" else 1
        result = harness.run_pass(cls, args.seed, args.scale, seconds,
                                  setup_repeats=repeats)
        values = harness.end_to_end(result)
        names = spec["end_to_end"]
        record["simulated"] = harness.simulated(result)

    mismatch = {m["name"] for m in names} ^ set(values)
    if mismatch:
        sys.exit(f"run.py: computed and declared metrics differ: "
                 f"{sorted(mismatch)}")
    if result.violations:
        problems.append(f"{result.violations} wrong outputs, e.g. "
                        + "; ".join(result.violation_notes))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    samples = {kind: len(values) for kind, values in
               sorted(result.latency_s.items())}

    print(f"workload {cls.name}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  measured {result.wall_s:.2f} s  "
          f"ops {result.ops} (pinned prefix {result.pinned_ops})")
    reference = harness.CALIBRATION_REFERENCE_S
    print(f"  host speed: calibration sample {reference / result.scale * 1e3:.2f}"
          f" ms against {reference * 1e3:.1f} ms at reference speed, so host "
          f"times are x {result.scale:.3f}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    if not args.trace:
        for name, value in record["simulated"].items():
            print(f"  {name:<40} {value:>14.4f} "
                  f"(simulated, first {result.pinned_ops} ops)")
    print(f"  samples behind the percentiles: {sum(samples.values())} ops "
          "(per kind, as clocked)")
    for kind, values in sorted(result.latency_s.items()):
        print(f"    {kind:<24} n={len(values):<7} "
              f"p50 {harness.percentile(values, 0.5) * 1e3:>10.4f} ms  "
              f"p95 {harness.percentile(values, 0.95) * 1e3:>10.4f} ms")
    print(f"  failed ops {result.failed} of {result.ops}")
    print(f"outcome_digest {result.digest}")
    for problem in problems:
        print(f"INCORRECT: {problem}")

    summary = {"correct": not problems, "attempted": result.ops,
               "failed": result.failed, "metrics": metrics}
    record.update(summary, digest=result.digest, samples=samples,
                  pinned_ops=result.pinned_ops, host_scale=result.scale)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if not problems else 1


# -- the suite --------------------------------------------------------------------------


def _child(args: argparse.Namespace, workload: str, trace: int,
           out: Path) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(trace),
               "--scale", args.scale, "--out", str(out)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        sys.exit(f"run.py: {workload} (trace {trace}) failed")
    return json.loads(out.read_text())


def _environment() -> Dict[str, Any]:
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": head.stdout.strip() or "unknown"}


def run_suite(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import compare
    spec = json.loads(compare.BENCHMARK_JSON.read_text())
    result: Dict[str, Any] = {
        "seed": args.seed, "scale": args.scale, "repeats": args.repeats,
        "environment": _environment(), "workloads": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        out = Path(scratch) / "pass.json"
        for entry in spec["workloads"]:
            name = entry["name"]
            runs = [_child(args, name, 0, out) for _ in range(args.repeats)]
            traced = _child(args, name, 1, out)
            digests = {run["digest"] for run in runs} | {traced["digest"]}
            if len(digests) != 1:
                sys.exit(f"run.py: {name} is not deterministic: {digests}")
            result["workloads"][name] = {
                "digest": runs[0]["digest"],
                "pinned_ops": runs[0]["pinned_ops"],
                "simulated": runs[0]["simulated"],
                "end_to_end": {
                    metric: [run["metrics"][metric]["value"] for run in runs]
                    for metric in runs[0]["metrics"]},
                "per_layer": {metric: body["value"] for metric, body
                              in traced["metrics"].items()},
                "trace_summary": traced["trace_summary"]}
            print(f"{name}: digest {runs[0]['digest'][:16]}")
            for metric, values in result["workloads"][name][
                    "end_to_end"].items():
                low, mid, high = compare.quartiles(values)
                print(f"  {metric:<14} median {mid:>12.4f}  "
                      f"quartiles {low:.4f} .. {high:.4f}  (n={len(values)})")
            top = list(traced["trace_summary"]["self_share"].items())[:3]
            print("  top self_share: "
                  + ", ".join(f"{layer} {share:.3f}" for layer, share in top))
    if args.out is not None:
        traces = {name: body.pop("trace_summary")
                  for name, body in result["workloads"].items()}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        for name, summary in traces.items():
            (args.out.parent / f"trace_{name}.json").write_text(
                json.dumps(summary, indent=1) + "\n")
    return 0


def main() -> int:
    args = parse_args(sys.argv[1:])
    if args.workload == "all":
        return run_suite(args)
    _pin_hash_seed()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
