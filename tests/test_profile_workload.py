"""``scripts/profile_workload.py`` on a smoke-scale pass.

The profile must cover the measured phase and nothing else: SWIM's
per-contact ``merge`` runs there, its ``register`` only in set-up.  It
runs under the caller's ``PYTHONHASHSEED`` and still digests what
``run.py`` does.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "profile_workload.py"


def _profile(*args, env=None):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True,
        text=True, timeout=300, check=True, env=env).stdout


def test_profiles_the_measured_phase_only():
    out = _profile("quorum_full_stack", "--scale", "smoke", "--top", "1000")
    head = out.splitlines()[0]
    assert re.fullmatch(
        r"workload quorum_full_stack  seed 11  scale smoke  ops 100  "
        r"failed 0  outcome_digest [0-9a-f]{16}", head), head
    assert "Ordered by: internal time" in out
    assert "(merge)" in out
    assert "(register)" not in out and "(setup)" not in out


def test_top_limits_the_listing():
    out = _profile("overlay_kv", "--scale", "smoke", "--seed", "12",
                   "--top", "3")
    assert "seed 12" in out.splitlines()[0]
    rows = [line for line in out.splitlines()
            if re.match(r"\s+\d+(/\d+)?\s+\d+\.\d+", line)]
    assert len(rows) == 3


def test_digest_matches_run_py_under_another_hash_seed():
    env = dict(os.environ, PYTHONHASHSEED="1")
    head = _profile("quorum_full_stack", "--scale", "smoke", "--top", "1",
                    env=env).splitlines()[0]
    profiled = re.search(r"outcome_digest ([0-9a-f]{16})$", head).group(1)
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py"),
         "--workload", "quorum_full_stack", "--scale", "smoke",
         "--seconds", "0", "--trace", "0"], capture_output=True, text=True,
        timeout=300, check=True, env=env, cwd=ROOT).stdout
    digest = re.search(r"^outcome_digest ([0-9a-f]+)$", run, re.M).group(1)
    assert digest[:16] == profiled
