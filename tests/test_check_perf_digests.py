"""``scripts/check_perf_digests.py``: which committed run it checks against."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "check_perf_digests", ROOT / "scripts" / "check_perf_digests.py")
check = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(check)


def test_the_newest_run_is_the_highest_pr_number(tmp_path):
    for name in ("BENCH_11.json", "BENCH_45.json", "BENCH_100.json",
                 "BENCH_9.json", "BENCH_latest.json", "BENCH_200.json.bak",
                 "bench_300.json"):
        (tmp_path / name).write_text("{}")
    assert check.newest_bench(tmp_path).name == "BENCH_100.json"
    (tmp_path / "BENCH_100.json").unlink()
    assert check.newest_bench(tmp_path).name == "BENCH_45.json"


def test_no_committed_run_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="no BENCH_<pr>.json"):
        check.newest_bench(tmp_path)


def test_the_repo_root_holds_the_trajectory():
    assert check.newest_bench().parent == ROOT
    assert (ROOT / "BENCH_11.json").read_bytes() == (
        ROOT / "benchmarks" / "perf" / "results" / "baseline.json").read_bytes()
