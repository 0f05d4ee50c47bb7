"""Checks of the perf harness itself (not part of tier-1).

Run with ``python -m pytest benchmarks/perf -q``.  A ``--scale smoke`` pass of
all five workloads, traced and untraced, takes well under 30 s.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import compare  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SIMULATED = ("msgs_per_op", "bytes_per_op", "failed_op_ratio",
             "unverified_served")


def _run(workload: str, trace: int, seed: int = 11):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--scale", "smoke", "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.startswith("outcome_digest"))
    return lines, json.loads(lines[-1]), digest


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    """One workload's untraced and traced smoke runs at seed 11."""
    return request.param, _run(request.param, 0), _run(request.param, 1)


def _printed(lines, name):
    """``(value, unit)`` of every human-readable line reporting ``name``."""
    return [line.split()[1:3] for line in lines
            if line.startswith("  ") and line.split()[0] == name]


def test_declaration_is_the_five_workloads_and_well_formed():
    assert WORKLOADS == ["social_dht_bare", "feed_cached_warm",
                         "quorum_full_stack", "overlay_kv", "acl_crypto"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names + WORKLOADS)
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_declared_metric_is_printed_once_with_its_unit(smoke):
    _, (plain_lines, plain, _), (traced_lines, traced, _) = smoke
    for declared, lines, summary in (
            (SPEC["end_to_end"], plain_lines, plain),
            (SPEC["per_layer"], traced_lines, traced)):
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] is True and summary["attempted"] >= 1
        assert list(summary["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            printed = _printed(lines, metric["name"])
            assert len(printed) == 1, (metric["name"], printed)
            assert printed[0][1] == metric["unit"]
            assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_traced_pass_replays_the_untraced_one(smoke):
    _, (plain_lines, _, plain_digest), (_, traced, traced_digest) = smoke
    # run.py itself fails a traced run whose digest or simulated metrics
    # differ from its untraced twin; across processes they must agree too
    assert plain_digest == traced_digest
    for name in SIMULATED:
        assert float(_printed(plain_lines, name)[0][0]) == pytest.approx(
            traced["metrics"][name]["value"], abs=1e-4)


def test_layer_shares_sum_to_one(smoke):
    _, _, (_, traced, _) = smoke
    shares = [m["value"] for name, m in traced["metrics"].items()
              if name.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert all(share >= 0 for share in shares)
    assert traced["metrics"]["obs.harness_trace_ops_ratio"]["value"] > 0


def test_another_seed_gives_other_inputs(smoke):
    name, (_, _, digest), _ = smoke
    assert _run(name, 0, seed=12)[2] != digest


def test_missing_program_is_an_error_not_a_result(tmp_path):
    """In a tree holding only the benchmark, the command must fail."""
    target = tmp_path / "benchmarks" / "perf"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "overlay_kv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


# -- self-time arithmetic on synthetic span trees --------------------------------------


class _Clock:
    """Hands out the timestamps a synthetic tree was written with."""

    def __init__(self, *ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def _tree(recorder, node):
    """Record ``(layer, name, [children])`` depth-first."""
    layer, name, children = node
    index = recorder.begin(recorder.key_id(layer, name))
    for child in children:
        _tree(recorder, child)
    recorder.finish(index)


def test_self_time_nested_sibling_and_zero_length_children():
    # op [0, 100] -> a [10, 60] -> (b [20, 30], b [30, 30], c [40, 55])
    #             -> c [70, 90]
    recorder = tracing.Recorder(clock=_Clock(
        0, 10, 20, 30, 30, 30, 40, 55, 60, 70, 90, 100))
    recorder.op_id = 0
    _tree(recorder, ("harness", "op", [
        ("x", "a", [("y", "b", []), ("y", "b", []), ("z", "c", [])]),
        ("z", "c", [])]))
    assert not recorder.stack
    summary = tracing.Summary(recorder, measured=True)
    assert summary.get("x.a") == tracing.KeyStats(1, 50, 25, 50, 25)
    assert summary.get("y.b") == tracing.KeyStats(2, 10, 10, 5.0, 5.0)
    assert summary.get("z.c") == tracing.KeyStats(2, 35, 35, 17.5, 17.5)
    assert summary.get("harness.op").self_ns == 100 - 50 - 20
    assert dict(summary.layer_self_ns) == {
        "harness": 30, "x": 25, "y": 10, "z": 35}
    shares = summary.shares(125)       # 25 ns of wall outside any op span
    assert shares == pytest.approx(
        {"x": 0.2, "y": 0.08, "z": 0.28, "harness": 0.44})
    assert sum(shares.values()) == pytest.approx(1.0)


def test_setup_and_measured_spans_are_kept_apart():
    recorder = tracing.Recorder(clock=_Clock(0, 5, 10, 30))
    _tree(recorder, ("x", "build", []))            # set-up: op_id is SETUP
    recorder.op_id = 0
    _tree(recorder, ("x", "work", []))
    assert list(tracing.Summary(recorder, measured=False).by_key) == [
        "x.build"]
    assert list(tracing.Summary(recorder, measured=True).by_key) == ["x.work"]


def test_wrappers_forward_results_exceptions_and_units_and_uninstall():
    class Box:
        def double(self, value):
            if value < 0:
                raise ValueError("negative")
            return 2 * value

        @property
        def size(self):
            return 7

    recorder = tracing.Recorder()
    installed = tracing.install(recorder, [
        tracing.Target(Box, "double", "x", "double",
                       lambda args, result: result),
        tracing.Target(Box, "size", "x", "size")])
    box = Box()
    assert box.double(4) == 8 and box.size == 7
    with pytest.raises(ValueError):
        box.double(-1)
    assert Box.double.__name__ == "double"
    installed.remove()
    assert box.double(1) == 2
    summary = tracing.Summary(recorder, measured=False)
    assert summary.get("x.double").count == 2      # the failed call too
    assert summary.get("x.size").count == 1
    assert summary.units == {"x.double": 8}
    assert not recorder.stack
    assert len(recorder.key) == 3                   # nothing after remove()


def test_compare_verdicts():
    steady, bound = [100.0, 101.0, 99.0], 0.1
    assert compare.verdict(steady, [104.0, 105.0, 103.0], "lower", bound) == "ok"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower",
                           bound) == "regressed"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "higher",
                           bound) == "ok"
    noisy = [80.0, 100.0, 125.0]
    assert compare.verdict(noisy, [90.0, 105.0, 120.0], "lower",
                           bound) == "unresolved"
    assert compare.verdict(noisy, [60.0, 70.0, 75.0], "lower", bound) == "ok"
    assert compare.verdict(noisy, [150.0, 170.0, 200.0], "lower",
                           bound) == "regressed"
