"""``scripts/profile_workload.py`` on a smoke-scale pass.

The profile must cover the measured phase and nothing else: SWIM's
per-contact ``merge`` runs there, its ``register`` only in set-up.
"""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "profile_workload.py"


def _profile(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True,
        text=True, timeout=300, check=True).stdout


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
