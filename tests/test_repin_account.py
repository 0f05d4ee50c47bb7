"""``scripts/repin_account.py``: the account a re-pin commit carries."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


account = _load("repin_account", ROOT / "scripts" / "repin_account.py")
reporting = _load("_reporting", ROOT / "benchmarks" / "_reporting.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIMULATED = {"msgs_per_op", "bytes_per_op", "failed_op_ratio",
             "unverified_served"}


def _bench(name):
    return json.loads((ROOT / name).read_text())


# -- bench -------------------------------------------------------------------

def test_bench_11_to_46_moved_no_simulated_metric():
    lines = account.bench(_bench("BENCH_11.json"), _bench("BENCH_46.json"),
                          SPEC)
    moved = {tuple(line.split(":")[0].split(" / ")) for line in lines}
    assert not [metric for _, metric in moved
                if metric == "outcome_digest" or metric in SIMULATED]
    # what did move between them is counts the perf PRs cut on purpose
    assert ("quorum_full_stack", "overlay.chord_hops_per_lookup") in moved
    assert ("acl_crypto", "crypto.modexp_calls_per_op") in moved


def test_bench_prints_a_moved_digest_and_simulated_metric():
    old = _bench("BENCH_46.json")
    new = json.loads(json.dumps(old))
    before = old["workloads"]["overlay_kv"]
    after = new["workloads"]["overlay_kv"]
    after["digest"] = "ab" * 32
    after["simulated"]["msgs_per_op"] = 99.5
    after["per_layer"]["overlay.net_rpcs_per_op"] = 7.25
    after["end_to_end"]["ops_per_s"] = [1.0]  # wall clock: not accounted
    assert account.bench(old, new, SPEC) == [
        f"overlay_kv / outcome_digest: {before['digest'][:8]}… "
        "→ abababab…",
        f"overlay_kv / msgs_per_op: "
        f"{before['simulated']['msgs_per_op']} → 99.5",
        f"overlay_kv / overlay.net_rpcs_per_op: "
        f"{before['per_layer']['overlay.net_rpcs_per_op']} → 7.25"]
    assert account.bench(old, old, SPEC) == []


# -- tables ------------------------------------------------------------------

def test_a_rendered_table_parses_back_to_its_cells():
    text = reporting._render(
        "E0 — demo", ["Faults", "Policy", "p50 lat (s)"],
        [["calm", "bare", 0.25], ["calm", "retry", 12.5],
         ["partition + burst", "retry", 150.0]], note="A note.")
    headers, rows, rest = account.parse(text)
    assert headers == ["Faults", "Policy", "p50 lat (s)"]
    assert rows == [["calm", "bare", "0.2500"], ["calm", "retry", "12.50"],
                    ["partition + burst", "retry", "150"]]
    assert rest == ["E0 — demo", "=========", "", "A note."]
    moved = text.replace("12.50", "12.75").replace("A note.", "Another.")
    assert account.compare_table("E0", text, moved) == [
        "E0 / calm retry / p50 lat (s): 12.50 → 12.75",
        "E0 / note: text changed"]
    assert account.parse("no table here\n") is None


def test_rows_are_named_by_the_fewest_leading_cells_that_tell_them_apart():
    old = reporting._render("T", ["Chaos", "Mode", "Msgs"],
                            [["calm", "quorum", 1.5], ["churn", "quorum", 2.5],
                             ["churn", "repair", 3.5]])
    new = reporting._render("T", ["Chaos", "Mode", "Msgs"],
                            [["calm", "quorum", 1.5], ["churn", "quorum", 2.5],
                             ["churn", "repair", 3.75]])
    assert account.tables({"T": old, "U": "x"}, {"T": new, "V": "y"}) == [
        "T / churn repair / Msgs: 3.50 → 3.75", "U: removed", "V: added"]


# the cells commit 5cea1fa's message lists, in its own shorthand
E12 = {  # Success rate, p50 lat (s), p99 lat (s), Msgs/query: old new
    "calm retry": (None, "0.4624 0.4453", "1.06 1.09", "9.93 7.93"),
    "calm retry+cb": (None, "0.4624 0.4453", "1.06 1.09", "9.93 7.93"),
    "burst 20% retry": (None, "0.5917 0.5586", "3.09 3.18", "11.27 9.02"),
    "burst 20% retry+cb": (None, "0.5424 0.5586", "5.16 3.18", "11.33 9.02"),
    "burst 40% retry": (None, "0.5790 0.7087", "10.62 11.21", "13.58 12.03"),
    "burst 40% retry+cb": ("0.9833 1.00", "0.5725 0.6025", "10.59 11.08",
                           "14.15 12.22"),
    "partition + burst 20% retry": (None, "6.07 5.79", "26.70 25.11",
                                    "34.18 32.47"),
    "partition + burst 20% retry+cb": (None, "1.49 1.71", "16.54 16.21",
                                       "15.72 14.18"),
    "partition + burst 40% retry": ("0.7167 0.7333", "6.49 7.90",
                                    "48.51 42.75", "39.82 39.63"),
    "partition + burst 40% retry+cb": ("0.6333 0.7167", "1.48 2.19",
                                       "16.63 17.40", "20.25 17.60"),
}
E12B = {  # Retries/Breaker trips/Fast-fails/Hedged reads/Fault drops/Timeouts
    "burst 20% retry": "61/0/0/0/62/62 43/0/0/0/44/44",
    "burst 20% retry+cb": "62/1/2/0/63/63 43/1/0/0/44/44",
    "burst 40% retry": "142/0/0/2/160/160 146/0/0/0/168/168",
    "burst 40% retry+cb": "153/18/13/4/171/171 149/21/14/0/170/170",
    "partition + burst 20% retry": "1101/0/0/38/1450/1450 "
                                   "1097/0/0/38/1450/1450",
    "partition + burst 20% retry+cb": "320/39/305/38/359/359 "
                                      "310/39/305/38/349/349",
    "partition + burst 40% retry": "1321/0/0/49/1726/1726 "
                                   "1356/0/0/41/1775/1775",
    "partition + burst 40% retry+cb": "484/68/414/51/552/552 "
                                      "441/56/356/40/497/497",
}
E15B = [("resilient", "Msgs/query", "8.99", "7.52"),
        ("health", "Msgs/query", "520", "515"),
        ("health", "Fast-fails", "57", "54"),
        ("health", "Timeouts", "13836", "14314"),
        ("health", "FP (false/total)", "253/384", "238/356")]


def _listed_cells():
    cells = []
    for row, moved in E12.items():
        for column, pair in zip(("Success rate", "p50 lat (s)",
                                 "p99 lat (s)", "Msgs/query"), moved):
            if pair:
                cells.append(("E12_fault_tolerance", row, column,
                              *pair.split()))
    for row, pair in E12B.items():
        old, new = (side.split("/") for side in pair.split())
        cells += [("E12b_resilience_counters", row, column, x, y)
                  for column, x, y in zip(
                      ("Retries", "Breaker trips", "Fast-fails",
                       "Hedged reads", "Fault drops", "Timeouts"), old, new)
                  if x != y]
    cells += [("E15b_health_routing", *cell) for cell in E15B]
    return {f"{table} / {row} / {column}: {x} → {y}"
            for table, row, column, x, y in cells}


def test_tables_reproduces_the_cells_a_hand_written_account_listed():
    have = subprocess.run(["git", "-C", str(ROOT), "cat-file", "-e",
                           "5cea1fa^{commit}"], capture_output=True)
    if have.returncode != 0:
        pytest.skip("needs the repository's history (a full clone)")
    lines = account.tables(account.results_at("5cea1fa^"),
                           account.results_at("5cea1fa"))
    assert len(lines) == len(set(lines)) == 69
    assert set(lines) == _listed_cells()
