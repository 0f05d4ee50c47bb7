"""``scripts/host_time.py``: the "Host time" table of the trajectory."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "host_time", ROOT / "scripts" / "host_time.py")
host_time = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(host_time)


def _run(ops, p50, rss, names=("a", "b")):
    metrics = {"ops_per_s": ops, "op_p50_ms": p50, "peak_rss_mb": rss}
    return {"seed": 11, "workloads": {name: {"end_to_end": metrics}
                                      for name in names}}


def test_one_row_per_run_in_pr_order_with_medians(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 10, "workloads": [{"name": "a"}, {"name": "b"}]}))
    runs = {"BENCH_100.json": _run([3000.0, 1000.0, 2000.0],
                                   [0.5, 0.1, 0.3], [70.0, 90.0, 80.0]),
            "BENCH_9.json": _run([10.0], [1.0], [50.0], names=("a",)),
            "BENCH_45.json": _run([20.0], [2.0], [60.0]),
            "BENCH_latest.json": _run([0.0], [0.0], [0.0])}
    for name, run in runs.items():
        (tmp_path / name).write_text(json.dumps(run))
    lines = host_time.table(tmp_path).splitlines()
    rows = [line for line in lines if line.startswith("| ") and
            line[2].isdigit()]
    assert rows == ["| 9 | 10 · 1.000 · 50.0 | — |",
                    "| 45 | 20 · 2.000 · 60.0 | 20 · 2.000 · 60.0 |",
                    "| 100 | 2 000 · 0.300 · 80.0 | 2 000 · 0.300 · 80.0 |"]
    assert lines[0] == host_time.BEGIN and lines[-1] == host_time.END
    assert "Peak RSS tracks the ops" in host_time.table(tmp_path)


def test_the_block_is_replaced_between_its_markers():
    text = f"head\n{host_time.BEGIN}\nold\n{host_time.END}\ntail\n"
    assert host_time.rewrite(text, "NEW") == "head\nNEW\ntail\n"
    with pytest.raises(ValueError, match="markers"):
        host_time.rewrite("no markers here", "NEW")


def test_the_committed_table_is_current():
    assert host_time.main(["--check"]) == 0
