"""Experiment E14 — durability and stale reads under churn + lying replicas.

The paper's warning that replica nodes are "another kind of service
provider in a small scale" has an operational consequence E12 did not
measure: a *reachable* replica is not necessarily an *honest* or
*current* one.  E14 stresses the replicated store with churn, state-losing
crashes, and holder-level Byzantine faults (StaleServe / Equivocate /
CorruptBlob), and compares three read paths over the same write history:

* ``bare``           — trust the first holder that answers
  (``ReplicatedStore.read_any``);
* ``quorum``         — verified R-of-N reads, newest verified version
  wins, read-repair of lagging holders;
* ``quorum+repair``  — the same plus the anti-entropy daemon (Merkle
  summary sync + re-placement) on the simulator clock.

Reported per cell: read success (fresh, verified), accepted-stale and
accepted-corrupt rates (reads that *returned the wrong bytes* — the
failure mode availability numbers usually hide), end-of-run durability
(keys whose newest version still exists on some peer), and the detection
counters (``storage.byzantine_rejects`` / ``read_repairs`` /
``re_replications``).

Everything is deterministic from the seed; the acceptance tests run the
headline cell twice and require byte-identical results, including the
JSONL trace of a traced run.

``REPRO_E14_SCALE=smoke`` shrinks the sweep for CI smoke runs.
"""

from __future__ import annotations

import os

from _reporting import report_table
from repro.exceptions import (CryptoError, IntegrityError, OverlayError,
                              QuorumWriteError, StorageError)
from repro.fabric import Fabric
from repro.faults import (CorruptBlob, Crash, Equivocate, FaultPlan,
                          StaleServe)
from repro.obs.export import trace_to_jsonl
from repro.overlay.chord import ChordRing
from repro.overlay.churn import ExponentialOnOff, apply_churn_to_network
from repro.storage2 import (AntiEntropyDaemon, ReplicatedStore,
                            ReplicationConfig)

SMOKE = os.environ.get("REPRO_E14_SCALE", "").lower() == "smoke"
N = 24 if SMOKE else 64          # peers
KEYS = 6 if SMOKE else 18        # stored objects (each overwritten twice)
READS = 30 if SMOKE else 108     # probes during the chaos window
CALM_END = 100.0                 # puts happen fault-free before this
WINDOW_END = 1000.0              # chaos window [CALM_END, WINDOW_END)
CHURN_TICK = 15.0                # churn snapshot cadence on the sim clock
CHURN_WARMUP = 3000.0            # query the session model past its initial
#                                  transient (schedules start offline)
REPAIR_INTERVAL = 15.0
SEED = 2015

MODES = ("bare", "quorum", "quorum+repair")
#: one Byzantine holder per affected key, kinds cycled per key index
BYZ_KINDS = (StaleServe, Equivocate, CorruptBlob)


def _peers():
    return [f"p{i}" for i in range(N)]


def _key(i):
    return f"key{i}"


class _Cell:
    """One (churn x byzantine x mode) run over the shared chaos script."""

    def __init__(self, churn: str, byz_fraction: float, mode: str,
                 tracing: bool = False):
        self.mode = mode
        self.fabric = Fabric.create(seed=SEED, tracing=tracing)
        self.sim, self.net = self.fabric.sim, self.fabric.network
        self.ring = ChordRing(self.fabric, successor_list_size=8,
                              replication=3)
        for name in _peers():
            self.ring.add_node(name)
        self.ring.build()
        self.store = ReplicatedStore(
            self.ring, ReplicationConfig(
                n=3, r=2, w=2,
                repair_interval=(REPAIR_INTERVAL if mode == "quorum+repair"
                                 else None)))
        self.expected = {}  # key -> newest successfully written version
        self.ok = 0
        self.failed = 0
        self.accepted_stale = 0
        self.accepted_corrupt = 0
        self._write_all(t=0.0)  # calm phase: every key placed fault-free
        self._install_chaos(churn, byz_fraction)
        if mode == "quorum+repair":
            AntiEntropyDaemon(self.store, REPAIR_INTERVAL).start()
        self.net.stats.reset()

    # -- the scripted chaos ------------------------------------------------------

    def _install_chaos(self, churn: str, byz_fraction: float) -> None:
        plan = FaultPlan(seed=SEED, horizon=WINDOW_END)
        byz_keys = int(round(byz_fraction * KEYS))
        for i in range(byz_keys):
            # the second replica of the key's original placement lies
            # about that key; owner and the other replica stay honest
            # (1-of-3 Byzantine per affected key)
            key = _key(i)
            liar = self.store.placements[key][1]
            kind = BYZ_KINDS[i % len(BYZ_KINDS)]
            plan.add(kind(holders=frozenset({liar}), start=CALM_END,
                          keys=frozenset({key})))
        if churn in ("churn", "churn+crash"):
            model = ExponentialOnOff(
                mean_online=900.0, mean_offline=450.0, seed=SEED,
                horizon=CHURN_WARMUP + WINDOW_END)
            t = CALM_END
            while t < WINDOW_END:
                self.sim.schedule_at(
                    t, lambda t=t: apply_churn_to_network(
                        self.net, model, CHURN_WARMUP + t))
                t += CHURN_TICK
        if churn == "churn+crash":
            # key0's holders are wiped one by one AFTER the last rewrite:
            # nothing re-stores the newest version, so without
            # re-placement the third crash destroys the last copy
            for k, holder in enumerate(self.store.placements[_key(0)]):
                plan.add(Crash(holder, at=725.0 + 65.0 * k,
                               restart_at=None, lose_state=True))
        self.net.install_faults(plan)

    # -- the shared workload ------------------------------------------------------

    def _online_peer(self, offset: int, exclude=()):
        for j in range(N):
            name = f"p{(offset + j) % N}"
            if name not in exclude and self.net.is_online(name):
                return name
        raise OverlayError("no peer online")

    def _write_all(self, t: float) -> None:
        for i in range(KEYS):
            key = _key(i)
            payload = f"{key}@{t:.0f}".encode()
            try:
                author = self._online_peer(3 * i + 1)
                record = self.store.put(author, key, payload)
                self.expected[key] = record.version
            except (QuorumWriteError, StorageError, OverlayError):
                pass  # a failed overwrite leaves the old version current

    def _read(self, j: int) -> None:
        key = _key(j % KEYS)
        reader = self._online_peer(2 * j + 1,
                                   exclude=self.store.placements[key])
        expected = self.expected[key]
        if self.mode == "bare":
            try:
                blob = self.store.read_any(reader, key)
            except (StorageError, OverlayError):
                self.failed += 1
                return
            try:
                record = self.store._verify(key, blob)
            except (IntegrityError, CryptoError):
                self.accepted_corrupt += 1  # garbage handed to the app
                return
            if record.version < expected:
                self.accepted_stale += 1
            else:
                self.ok += 1
            return
        try:
            result = self.store.get(reader, key)
        except (StorageError, IntegrityError, OverlayError):
            self.failed += 1
            return
        if result.version < expected:
            self.accepted_stale += 1  # the quorum let old state through
        else:
            self.ok += 1

    def run(self) -> dict:
        """Reads spread across the window, overwrites at 1/3 and 2/3."""
        rewrites = {CALM_END + (WINDOW_END - CALM_END) / 3.0,
                    CALM_END + 2.0 * (WINDOW_END - CALM_END) / 3.0}
        events = sorted(
            [(CALM_END + 5.0 + j * (WINDOW_END - CALM_END - 10.0) / READS,
              "read", j) for j in range(READS)]
            + [(t, "write", None) for t in rewrites])
        for t, op, j in events:
            self.sim.run(until=t)
            if op == "write":
                self._write_all(t)
            else:
                self._read(j)
        self.sim.run(until=WINDOW_END)
        return self._summary()

    def _durability(self) -> float:
        """Keys whose newest version survives on *some* peer's disk."""
        alive = 0
        for key, version in self.expected.items():
            for node in self.ring.nodes.values():
                blob = node.store.get(key)
                if blob is None:
                    continue
                try:
                    record = self.store._verify(key, blob)
                except (IntegrityError, CryptoError):
                    continue
                if record.version == version:
                    alive += 1
                    break
        return alive / len(self.expected)

    def _summary(self) -> dict:
        metrics = self.fabric.metrics
        return {
            "success": self.ok / READS,
            "stale": self.accepted_stale / READS,
            "corrupt": self.accepted_corrupt / READS,
            "failed": self.failed / READS,
            "durability": self._durability(),
            "byz_rejects": metrics.get_counter_value(
                "storage.byzantine_rejects"),
            "read_repairs": metrics.get_counter_value(
                "storage.read_repairs"),
            "re_replications": metrics.get_counter_value(
                "storage.re_replications"),
            "repair_pulls": metrics.get_counter_value(
                "storage.repair_pulls"),
            "msgs_per_read": self.net.stats.messages / READS,
        }


def _run_cell(churn: str, byz: float, mode: str, tracing: bool = False):
    cell = _Cell(churn, byz, mode, tracing=tracing)
    summary = cell.run()
    return (cell, summary) if tracing else summary


CELLS = (
    ("calm", 0.0),
    ("calm", 1.0),
    ("churn", 0.0),
    ("churn", 1.0),
    ("churn+crash", 1.0),   # the headline chaos cell
)


def test_durability_vs_mode(benchmark):
    """E14 main table: who returns wrong bytes, who loses data."""

    def sweep():
        cells = {}
        for churn, byz in CELLS:
            for mode in MODES:
                cells[(churn, byz, mode)] = _run_cell(churn, byz, mode)
        return cells

    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    chaos = ("churn+crash", 1.0)
    # Verification is absolute: no quorum-mode read ever returns corrupt
    # bytes, in any cell.  Staleness is different — a StaleServe holder
    # replays *validly signed* old state, so quorum-only can still meet R
    # with stale copies when the fresh holders are churned out; only the
    # anti-entropy daemon closes that window.
    for (churn, byz, mode), cell in cells.items():
        if mode != "bare":
            assert cell["corrupt"] == 0.0, (churn, byz, mode)
        if mode == "quorum+repair":
            assert cell["stale"] == 0.0, (churn, byz, mode)
    # The acceptance bar: self-healing quorum reads stay >= 95% available
    # under the full chaos plan while never returning wrong bytes...
    assert cells[chaos + ("quorum+repair",)]["success"] >= 0.95
    # ...where the bare path returns stale/corrupt data (or just fails).
    bare = cells[chaos + ("bare",)]
    assert bare["stale"] + bare["corrupt"] > 0.0
    # Repair out-survives bare storage: key0's copies are crashed away
    # one by one, and only re-placement stays ahead of the loss.
    assert cells[chaos + ("quorum+repair",)]["durability"] > \
        bare["durability"]
    assert cells[chaos + ("quorum+repair",)]["durability"] == 1.0
    # Detection is visible, not silent: lying holders show up in the
    # repro.obs counters under chaos.
    assert cells[chaos + ("quorum+repair",)]["byz_rejects"] > 0
    assert cells[chaos + ("quorum+repair",)]["re_replications"] > 0

    report_table(
        "E14_durability",
        "E14 — read integrity + durability: bare vs quorum vs quorum+repair",
        ["Chaos", "Byz frac", "Mode", "Fresh reads", "Stale acc.",
         "Corrupt acc.", "Failed", "Durability"],
        [(churn, byz, mode, cell["success"], cell["stale"],
          cell["corrupt"], cell["failed"], cell["durability"])
         for (churn, byz, mode), cell in cells.items()],
        note=("'Stale/Corrupt acc.' are reads that RETURNED wrong bytes. "
              "The bare first-responder path converts Byzantine holders "
              "into silent wrong answers; verified quorum reads convert "
              "them into rejections, and the anti-entropy daemon converts "
              "the resulting availability gap back into fresh reads "
              "(and keeps the last copy alive under state-losing "
              "crashes)."))

    report_table(
        "E14b_detection_counters",
        "E14b — what the self-healing machinery did (quorum modes)",
        [" Chaos", "Byz frac", "Mode", "Byz rejects", "Read repairs",
         "Re-replications", "Repair pulls", "Msgs/read"],
        [(churn, byz, mode, cell["byz_rejects"], cell["read_repairs"],
          cell["re_replications"], cell["repair_pulls"],
          cell["msgs_per_read"])
         for (churn, byz, mode), cell in cells.items() if mode != "bare"],
        note=("storage.byzantine_rejects / read_repairs / re_replications "
              "are MetricsRegistry counters (repro.obs), so operators see "
              "replica misbehaviour as first-class telemetry rather than "
              "as unexplained staleness."))


def test_headline_cell_deterministic(benchmark):
    """Two runs of the chaos cell must be byte-identical (seeded)."""

    def run_twice():
        first = _run_cell("churn+crash", 1.0, "quorum+repair")
        second = _run_cell("churn+crash", 1.0, "quorum+repair")
        return first, second

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert repr(first) == repr(second)


def test_trace_determinism(benchmark):
    """The traced chaos cell exports a byte-identical JSONL both runs."""

    def run_twice():
        cell1, _ = _run_cell("churn", 1.0, "quorum+repair", tracing=True)
        cell2, _ = _run_cell("churn", 1.0, "quorum+repair", tracing=True)
        return (trace_to_jsonl(cell1.fabric.tracer),
                trace_to_jsonl(cell2.fabric.tracer))

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert first == second
    assert "storage2.get" in first and "storage2.repair" in first
