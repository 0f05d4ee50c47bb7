"""Experiment E18 — overload: hotspot spike, metastable collapse, recovery.

The paper's availability story prices replication and quorum overlap
against crash faults, but real DOSN deployments die differently: a hot
object concentrates load on its few replica holders, clients time out
and retry, and the retry traffic keeps the holders saturated *after* the
original spike has passed — metastable collapse.  E18 reproduces that
failure and the fix on the same fabric:

* a Chord ring + verified quorum store (N=3, R=2, W=2) with one hot key;
* every peer gets a :class:`repro.faults.ServiceConfig` service model —
  10 requests/second of capacity per holder;
* a read workload in three phases: PRE (3 reads/s, healthy), SPIKE
  (20 reads/s — ~2x over the holders' aggregate capacity), POST (back
  to 3 reads/s).

Three stacks run the identical workload at the identical seed:

* **bare** — unbounded queues, fixed 1s attempt timeout, 4 retries, no
  budget: the spike builds a multi-second backlog, every answer arrives
  after the client stopped waiting (the service time is still paid —
  wasted work), and 4-attempt retries keep post-spike demand above
  capacity forever.  Post-spike goodput collapses below 50% of PRE.
* **shed** — the same queue bounded at 4 with ``"reject"`` shedding:
  overflow fails in one round trip instead of billing service time, the
  backlog is capped, and the system drains within a second of the spike
  ending.
* **full** — shedding plus per-operation deadlines (2s budget), the
  channel-wide retry budget, and adaptive EWMA attempt timeouts: the
  spike is survived *cheaply* (doomed work is abandoned before it is
  issued) and POST goodput returns to >= 90% of PRE.

Goodput counts a read only when it succeeds within the 2s SLO.  Per
phase the table reports the overload counters
(``shed`` / ``deadline_expired`` / ``budget_exhausted`` — surfaced via
:meth:`repro.overlay.network.NetworkStats.summary` and the
``overload.*`` metrics), the peak holder queue depth, and the message
bill.

Determinism: the protected cell is re-run and must be byte-identical
(shed decisions draw no RNG; deadlines and budgets are pure virtual-time
arithmetic).

``REPRO_E18_SCALE=smoke`` shrinks the phases for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics

from _reporting import report_table
from repro.exceptions import DeadlineExceededError, StorageError
from repro.fabric import Fabric
from repro.faults import OverloadConfig, RetryPolicy, ServiceConfig
from repro.overlay.chord import ChordRing
from repro.storage2 import ReplicatedStore, ReplicationConfig

SMOKE = os.environ.get("REPRO_E18_SCALE", "").lower() == "smoke"
SEED = 2018

N = 16 if SMOKE else 24          # chord peers
SERVICE_TIME = 0.1               # 10 req/s of capacity per peer
QUEUE_LIMIT = 4                  # bounded backlog for the protected stacks
ATTEMPT_TIMEOUT = 1.0            # fixed client timeout (bare + shed)
OP_BUDGET = 2.0                  # full stack's per-read deadline
SLO = 2.0                        # a read this slow is not goodput
RATE_CALM = 3.0                  # reads/s in PRE and POST
RATE_SPIKE = 20.0                # reads/s during the spike
PRE_S = 10.0 if SMOKE else 20.0
SPIKE_S = 10.0 if SMOKE else 30.0
POST_S = 10.0 if SMOKE else 20.0
HOT_KEY = "hot"

#: the three stacks; every ablation keeps the same 4-attempt retry
#: policy so only the overload protections differ between rows
STACKS = {
    "bare": OverloadConfig(
        service=ServiceConfig(service_time=SERVICE_TIME, queue_limit=None,
                              timeout=ATTEMPT_TIMEOUT),
        op_budget=None, retry_budget=False, adaptive_timeout=False),
    "shed": OverloadConfig(
        service=ServiceConfig(service_time=SERVICE_TIME,
                              queue_limit=QUEUE_LIMIT,
                              timeout=ATTEMPT_TIMEOUT),
        op_budget=None, retry_budget=False, adaptive_timeout=False),
    "full": OverloadConfig(
        service=ServiceConfig(service_time=SERVICE_TIME,
                              queue_limit=QUEUE_LIMIT,
                              timeout=ATTEMPT_TIMEOUT),
        op_budget=OP_BUDGET, retry_budget=True, adaptive_timeout=True),
}

_COUNTERS = ("messages", "timeouts", "retries", "shed", "deadline_expired",
             "budget_exhausted")


def _drive(sim, store, readers, start, duration, rate):
    """Issue ``rate`` hot-key reads/s for ``duration``; returns the phase row.

    Goodput = succeeded within the SLO.  Failures (quorum misses,
    sheds surfacing as ``OverloadedError``, expired deadlines) and
    SLO-busting successes both count against it.
    """
    reads = int(round(duration * rate))
    step = 1.0 / rate
    good = 0
    latencies = []
    for j in range(reads):
        sim.run(until=start + j * step)
        try:
            result = store.get(readers[j % len(readers)], HOT_KEY)
        except (StorageError, DeadlineExceededError):
            continue
        latencies.append(result.elapsed)
        if result.elapsed <= SLO:
            good += 1
    sim.run(until=start + duration)
    return {
        "reads": reads,
        "goodput": good / reads,
        "p50": round(statistics.median(latencies), 4) if latencies
        else float("nan"),
    }


def _overload_cell(stack: str):
    """One full PRE/SPIKE/POST run of one stack; returns per-phase rows."""
    config = STACKS[stack]
    fab = Fabric.create(seed=SEED, retry=RetryPolicy(max_attempts=4))
    ring = ChordRing(fab, successor_list_size=8, replication=3)
    for i in range(N):
        ring.add_node(f"p{i}")
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    store.put("p0", HOT_KEY, b"the one post everybody loads")
    # Install the overload stack only after bootstrap: ring build and the
    # seeding put all happen at virtual time 0, which would read as an
    # instantaneous request storm against the service queues.  Production
    # wiring is Fabric.create(overload=...) / DosnConfig(overload=...);
    # the late install here prices the measured workload only.
    fab.install_overload(config)
    holders = store.placements[HOT_KEY]
    readers = [f"p{i}" for i in range(N) if f"p{i}" not in holders]
    fab.network.stats.reset()

    phases = {}
    start = 5.0
    before = fab.network.stats.summary()
    for phase, duration, rate in (("pre", PRE_S, RATE_CALM),
                                  ("spike", SPIKE_S, RATE_SPIKE),
                                  ("post", POST_S, RATE_CALM)):
        row = _drive(fab.sim, store, readers, start, duration, rate)
        after = fab.network.stats.summary()
        row.update({k: after[k] - before[k] for k in _COUNTERS})
        row["queue_peak"] = max(
            (fab.network.queue_peak.get(h, 0) for h in holders), default=0)
        phases[phase] = row
        before = after
        start += duration
    return phases


def test_hotspot_metastability(benchmark):
    """E18 headline: bare collapses metastably, the full stack recovers."""

    def sweep():
        return {stack: _overload_cell(stack) for stack in STACKS}

    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    bare, shed, full = cells["bare"], cells["shed"], cells["full"]
    # Fair weather: the protections must not cost availability.
    assert bare["pre"]["goodput"] == 1.0
    assert full["pre"]["goodput"] == 1.0
    # The headline gates.  Bare: retries keep post-spike demand (3 reads/s
    # x 4 attempts x 3 holders) above the holders' capacity, so the
    # backlog never drains — goodput stays collapsed after the spike ends.
    assert bare["post"]["goodput"] < 0.5 * bare["pre"]["goodput"], (
        f"bare stack did not collapse metastably "
        f"(post goodput {bare['post']['goodput']:.2f})")
    # Full: sheds + deadlines + the retry budget cap the backlog at
    # queue_limit x service_time, so POST drains within a second.
    assert full["post"]["goodput"] >= 0.9 * full["pre"]["goodput"], (
        f"protected stack did not recover "
        f"(post goodput {full['post']['goodput']:.2f})")
    # The bounded queue alone already prevents the metastable state.
    assert shed["post"]["goodput"] > bare["post"]["goodput"]
    # Mechanism check: only the protected stacks shed; only the full
    # stack spends deadlines and exhausts the retry budget.
    assert bare["spike"]["shed"] == 0
    assert shed["spike"]["shed"] > 0 and full["spike"]["shed"] > 0
    assert full["spike"]["deadline_expired"] > 0
    assert full["spike"]["budget_exhausted"] > 0
    assert bare["spike"]["deadline_expired"] == 0
    # The bare queue grows without bound; the protected one is capped
    # (the peak gauge records depth before the shed decision, and wire-
    # latency jitter on arrival times can read one slot past the limit).
    assert full["spike"]["queue_peak"] <= QUEUE_LIMIT + 1
    assert bare["spike"]["queue_peak"] > 10 * QUEUE_LIMIT

    rows = []
    for stack in ("bare", "shed", "full"):
        for phase in ("pre", "spike", "post"):
            row = cells[stack][phase]
            rows.append([stack, phase, f"{row['goodput']:.2f}",
                         row["p50"], row["shed"], row["timeouts"],
                         row["retries"], row["deadline_expired"],
                         row["budget_exhausted"], row["queue_peak"],
                         row["messages"]])
    report_table(
        "E18_overload",
        "E18 — hot-key spike: metastable collapse vs overload protection",
        ["Stack", "Phase", "Goodput", "p50 (s)", "Shed", "Timeouts",
         "Retries", "DeadlineExp", "BudgetExh", "QueuePeak", "Msgs"],
        rows,
        note=(f"Goodput = reads succeeding within the {SLO:.0f}s SLO, per "
              f"phase (PRE/POST {RATE_CALM:.0f} reads/s, SPIKE "
              f"{RATE_SPIKE:.0f}/s against 3 holders x "
              f"{1 / SERVICE_TIME:.0f} req/s).  Bare: the unbounded "
              "backlog turns every answer into a client timeout whose "
              "service time was still paid, and 4-attempt retries hold "
              "demand above capacity after the spike — goodput never "
              "comes back.  Shed: a queue bounded at "
              f"{QUEUE_LIMIT} rejects overflow in one round trip, so the "
              "backlog drains the moment the spike ends.  Full adds "
              "deadlines, the retry budget and adaptive timeouts: the "
              "same recovery, with doomed work abandoned before it is "
              "issued."))


def test_overload_cell_deterministic(benchmark):
    """E18b: two protected runs must be byte-identical (no shed RNG)."""

    def run_twice():
        return _overload_cell("full"), _overload_cell("full")

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert repr(first) == repr(second)
