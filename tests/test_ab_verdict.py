"""``scripts/ab_verdict.py``: the per-metric verdict of an A/B record."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_verdict.py"


def _verdict(*paths):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def _row(out, workload, metric):
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[:2] == [workload, metric]:
            return cells
    raise AssertionError(f"no {workload} {metric} row in\n{out}")


def test_a_committed_record_reads_as_its_changes_entry_reports():
    done = _verdict(ROOT / "docs" / "ab" / "PR41.jsonl")
    assert done.returncode == 0, done.stderr
    assert _row(done.stdout, "quorum_full_stack", "op_p50_ms") == [
        "quorum_full_stack", "op_p50_ms", "6", "0.472", "0.454", "-4.0",
        "4/6", "0.015", "yes", "yes"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = [line for line in done.stdout.splitlines()
            if line.startswith("| ") and "---" not in line
            and not line.startswith("| workload")]
    assert len(rows) == (len(declared["workloads"])
                         * len(declared["end_to_end"]))


def _run(side, pair, p50, trace=0, seed=11):
    return {"batch": 1, "workload": "overlay_kv", "seed": seed,
            "trace": trace, "pair": pair, "side": side,
            "metrics": {"setup_s": 1.0, "ops_per_s": 100.0,
                        "op_p50_ms": p50, "op_p95_ms": 1.0,
                        "peak_rss_mb": 50.0}}


def _record(tmp_path, runs):
    path = tmp_path / "record.jsonl"
    path.write_text("".join(json.dumps(run) + "\n" for run in runs))
    return path


def test_an_out_of_bound_median_fails_and_traced_runs_are_skipped(
        tmp_path):
    runs = [_run("parent", 1, 1.0), _run("change", 1, 1.3),
            _run("parent", 2, 1.0), _run("change", 2, 1.3),
            _run("change", 1, 9.0, trace=1)]
    done = _verdict(_record(tmp_path, runs))
    assert done.returncode == 1
    assert _row(done.stdout, "overlay_kv", "op_p50_ms")[2:] == [
        "2", "1.00", "1.30", "+30.0", "0/2", "0.0", "yes", "NO"]
    assert _row(done.stdout, "overlay_kv", "setup_s")[-1] == "yes"


def test_a_run_without_its_pair_is_rejected(tmp_path):
    done = _verdict(_record(tmp_path, [_run("parent", 1, 1.0),
                                       _run("change", 1, 1.0),
                                       _run("parent", 2, 1.0)]))
    assert done.returncode == 1 and "only the ['parent'] side" in done.stderr
    assert _verdict().returncode == 2
