"""The measurement loop and the metric definitions of the perf harness.

One *pass* is: set a workload up, ``gc.collect()`` once, then drive its
operation stream in a closed loop (one client, one thread) while timing
each public call.  A stream is a repetition of *rounds* that all hold the
same kinds of op the same number of times.  For a seed, the first
``pinned_rounds`` rounds of every pass are identical; the *simulated*
metrics (messages, bytes, failures) and the ``outcome_digest`` are taken
over exactly that prefix, so they are exact and comparable between runs.
An untraced pass then keeps going on the same stream until ``seconds`` have
elapsed.  The *host* metrics are medians over ``SLICES`` consecutive slices
of everything it executed.

Metric names and units are declared once, in ``BENCHMARK.json``; this
module computes a value for every declared name and nothing else.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Type)

from repro.acl import SCHEME_REGISTRY
from repro.exceptions import ReproError
from repro.overlay import NetworkStats

from tracing import HARNESS, SETUP, NullRecorder, Recorder, Summary

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Set-ups per untraced full-scale pass; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: The measured phase is cut into this many slices of whole rounds (fewer if
#: it is short); the host metrics are medians over them, which a stall of
#: the host shorter than two slices does not move.
SLICES = 5


#: Wall seconds one calibration sample takes on the reference VM in its fast
#: state; host times are restated at that speed (see ``host_scale``).
CALIBRATION_REFERENCE_S = 0.0052
#: Measured seconds between two calibration samples.
CALIBRATION_EVERY_S = 0.25
_MODULUS = (1 << 255) - 19
_EXPONENT = 0x1234567890abcdef1234567890abcdef1234567890abcdef1234567890abcde


def calibration_sample(clock: Callable[[], float] = time.perf_counter
                       ) -> float:
    """Wall seconds of a fixed kernel: interpreter work, then modexp.

    Those are the two things the program's time goes into.  The host's speed
    changes by 10-35 % for minutes at a time (shared cores); across runs the
    kernel's time tracks a workload's with r = 0.9-0.98, so dividing by it
    removes most of that drift from the host metrics.
    """
    started = clock()
    total, table = 0, {}
    for i in range(30000):
        total += i * i % 7
        table[i & 255] = total
    x = 3
    for i in range(25):
        x = pow(x + i, _EXPONENT, _MODULUS)
    return clock() - started


def host_scale(samples: List[float]) -> float:
    """Factor that restates a host time as seconds at reference speed."""
    return CALIBRATION_REFERENCE_S / statistics.median(samples)


def declared() -> Dict[str, Any]:
    """The benchmark's declaration (workloads, metric names, units, bounds)."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


class OpFailed(Exception):
    """An operation returned, but not cleanly (counts as a failed op)."""


class Op(NamedTuple):
    """One operation of a workload's stream."""

    kind: str
    #: the timed public call
    call: Callable[[], Any]
    #: verifies the result against ground truth (reporting through
    #: :meth:`Workload.violation`), updates ground truth, and returns the
    #: outcome string that enters the digest
    check: Callable[[Any], str]


def rotation(mix: Sequence[Tuple[str, int]]) -> Iterator[str]:
    """Op kinds in an endless, evenly interleaved rotation.

    Smooth weighted round-robin: every ``sum(weights)`` consecutive kinds —
    one *round* — hold each kind exactly ``weight`` times, spread out.  A
    random mix would let the share of the expensive kinds, and with it every
    all-op percentile, drift from seed to seed and slice to slice.
    """
    total = sum(weight for _, weight in mix)
    credit = [0] * len(mix)
    one_round = []
    for _ in range(total):
        for index, (_, weight) in enumerate(mix):
            credit[index] += weight
        best = max(range(len(mix)), key=credit.__getitem__)
        credit[best] -= total
        one_round.append(mix[best][0])
    return cycle(one_round)


class Workload:
    """A pinned input generator plus its ground truth.

    Subclasses build their system in :meth:`setup` through public APIs only
    and provide one ``_op_<kind>()`` per kind in ``mix`` (or their own
    endless, seed-determined :meth:`ops` stream).
    """

    name = ""
    #: op kinds and how often each comes up in one round of the stream
    mix: Tuple[Tuple[str, int], ...] = ()
    #: rounds in the digest/simulated-metrics prefix, per scale
    pinned_rounds = {"full": 0, "smoke": 0}

    def __init__(self, seed: int, scale: str, recorder) -> None:
        self.seed = seed
        self.scale = scale
        self.recorder = recorder
        self.violations = 0
        self.violation_notes: List[str] = []

    def round_ops(self) -> int:
        """Length of one round of the op stream.

        Every round holds the same kinds of op the same number of times, so
        rounds (and slices made of whole rounds) are comparable.
        """
        return sum(weight for _, weight in self.mix)

    def pinned_count(self) -> int:
        return self.pinned_rounds[self.scale] * self.round_ops()

    def setup(self) -> None:
        raise NotImplementedError

    def begin_measured(self) -> None:
        """Hook run once between set-up and the first measured op."""

    def before_op(self) -> None:
        """Hook run (untimed) before every op, measured or set-up."""

    def ops(self) -> Iterator[Op]:
        """The endless op stream: ``mix`` in rotation, via ``_op_<kind>()``."""
        for kind in rotation(self.mix):
            yield getattr(self, f"_op_{kind}")()

    @property
    def stats(self) -> NetworkStats:
        """The workload's traffic counters (all zero without a network)."""
        return NetworkStats()

    def counters(self) -> Dict[str, float]:
        """Workload-specific simulated counters, read after the pass."""
        return {}

    def violation(self, note: str) -> None:
        """Record one wrong output (unverified, wrong text, stale, ...)."""
        self.violations += 1
        if len(self.violation_notes) < 5:
            self.violation_notes.append(note)


class Slice(NamedTuple):
    """Host numbers of one run of consecutive whole rounds."""

    ops_per_s: float
    p50_s: float
    p95_s: float


@dataclass
class PassResult:
    """Everything one pass measured."""

    #: every set-up's wall, at reference speed
    setups_s: List[float]
    #: wall of the measured phase, calibration pauses excluded, as clocked
    wall_s: float = 0.0
    #: ``host_scale`` around the last set-up and during the measured phase;
    #: every other host time in here is as clocked
    setup_scale: float = 1.0
    scale: float = 1.0
    ops: int = 0
    failed: int = 0
    violations: int = 0
    violation_notes: List[str] = field(default_factory=list)
    latency_s: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    msgs: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: taken when the pinned prefix completed
    digest: str = ""
    pinned_ops: int = 0
    pinned_failed: int = 0
    pinned_stats: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    slices: List[Slice] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.wall_s * self.scale)

    def all_latencies(self) -> List[float]:
        return [x for values in self.latency_s.values() for x in values]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``0`` for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def run_pass(cls: Type[Workload], seed: int, scale: str, seconds: float,
             recorder=None, setup_repeats: int = 1) -> PassResult:
    """Set ``cls`` up (``setup_repeats`` times, keeping the last) and measure.

    The loop runs the pinned prefix and then, if ``seconds`` have not yet
    elapsed, continues until they have (and the current round is complete).
    """
    recorder = recorder if recorder is not None else NullRecorder()
    clock = time.perf_counter
    result = PassResult(setups_s=[])
    workload = None
    for _ in range(setup_repeats):
        workload = None         # drop the previous build before the next
        gc.collect()
        workload = cls(seed, scale, recorder)
        samples = [calibration_sample() for _ in range(3)]
        started = clock()
        workload.setup()
        elapsed = clock() - started
        samples += [calibration_sample() for _ in range(3)]
        result.setup_scale = host_scale(samples)
        result.setups_s.append(elapsed * result.setup_scale)
    gc.collect()
    workload.begin_measured()
    recorder.begin_measured()

    stats = workload.stats
    base = stats.summary()
    pinned = workload.pinned_count()
    round_ops = workload.round_ops()
    root = recorder.key_id(HARNESS, "op")
    ops = workload.ops()
    # The loop only logs, into flat columns (a tuple per op would add 10 MB
    # to the peak RSS of the longest window); everything derived from the log
    # is computed after it, outside the measured wall.
    kinds: List[str] = []
    outcomes: List[str] = []        # of the pinned prefix only
    failures = bytearray()
    latency, ended = array("d"), array("d")    # ended: pauses taken out
    msgs_before, msgs_after = array("q"), array("q")
    samples: List[float] = []
    paused = 0.0
    done = 0
    start = next_sample = clock()
    deadline = start + seconds
    while done < pinned or clock() - paused < deadline or done % round_ops:
        if clock() >= next_sample:
            began = clock()
            samples.append(calibration_sample())
            next_sample = clock()
            paused += next_sample - began
            next_sample += CALIBRATION_EVERY_S
        recorder.op_id = done
        span = recorder.begin(root)
        workload.before_op()
        op = next(ops)
        msgs_before.append(stats.messages)
        t0 = clock()
        try:
            value = op.call()
        except ReproError as exc:
            t1 = clock()
            outcome = f"failed:{type(exc).__name__}"
        else:
            t1 = clock()
            try:
                outcome = op.check(value)
            except OpFailed as exc:
                outcome = f"failed:{exc}"
        msgs_after.append(stats.messages)
        kinds.append(op.kind)
        failures.append(outcome.startswith("failed:"))
        if done < pinned:
            outcomes.append(outcome)
        latency.append(t1 - t0)
        ended.append(t1 - paused)
        recorder.finish(span)
        done += 1
        if done == pinned:
            result.pinned_stats = {key: count - base[key] for key, count
                                   in stats.summary().items()}
    result.wall_s = clock() - paused - start
    result.scale = host_scale(samples)
    recorder.op_id = SETUP

    result.ops = done
    result.pinned_ops = pinned
    hasher = hashlib.sha256()
    for index, kind in enumerate(kinds):
        result.latency_s[kind].append(latency[index])
        result.msgs[kind] += msgs_after[index] - msgs_before[index]
        if index < pinned:
            hasher.update(
                f"{kind}|{outcomes[index]}|{msgs_after[index]}\n".encode())
    result.failed = sum(failures)
    result.pinned_failed = sum(failures[:pinned])
    result.digest = hasher.hexdigest()
    # Slices of whole rounds, so each holds the same mix of ops.
    rounds = done // round_ops
    per_slice = rounds // min(SLICES, rounds) * round_ops
    for first in range(0, rounds * round_ops - per_slice + 1, per_slice):
        last = first + per_slice
        latencies = sorted(latency[first:last])
        wall = ended[last - 1] - (ended[first - 1] if first else start)
        result.slices.append(Slice(per_slice / wall,
                                   percentile(latencies, 0.50),
                                   percentile(latencies, 0.95)))
    result.violations = workload.violations
    result.violation_notes = workload.violation_notes
    result.counters = workload.counters()
    result.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


# -- metrics ------------------------------------------------------------------------


def simulated(result: PassResult) -> Dict[str, float]:
    """The exact, seed-determined metrics of the pinned prefix."""
    n = result.pinned_ops
    return {
        "msgs_per_op": result.pinned_stats.get("messages", 0) / n,
        "bytes_per_op": result.pinned_stats.get("bytes", 0) / n,
        "failed_op_ratio": result.pinned_failed / n,
        "unverified_served": float(result.violations),
    }


def end_to_end(result: PassResult) -> Dict[str, float]:
    """The host metrics a user of the system would see (untraced pass)."""
    median, scale = statistics.median, result.scale
    return {
        "setup_s": median(result.setups_s),
        "ops_per_s": median(s.ops_per_s for s in result.slices) / scale,
        "op_p50_ms": median(s.p50_s for s in result.slices) * scale * 1e3,
        "op_p95_ms": median(s.p95_s for s in result.slices) * scale * 1e3,
        "peak_rss_mb": result.peak_rss_mb,
    }


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def per_layer(untraced: PassResult, traced: PassResult, recorder: Recorder,
              tracer_on: Optional[PassResult]) -> Dict[str, float]:
    """Every per-layer metric, from the traced pass and its spans.

    Host times are restated at reference speed like the end-to-end ones:
    measured-phase spans by the traced pass's ``scale``, set-up spans by its
    ``setup_scale``.
    """
    measured = Summary(recorder, measured=True)
    setup = Summary(recorder, measured=False)
    ops = traced.ops
    out: Dict[str, float] = dict(simulated(traced))

    def median_s(label: str, phase: Summary = measured) -> float:
        factor = traced.scale if phase is measured else traced.setup_scale
        return phase.get(label).median_ns * factor / 1e9

    def total_s(label: str, phase: Summary = measured) -> float:
        factor = traced.scale if phase is measured else traced.setup_scale
        return phase.get(label).total_ns * factor / 1e9

    def latencies(kind: Optional[str] = None) -> List[float]:
        return (traced.all_latencies() if kind is None
                else traced.latency_s.get(kind, []))

    # dosn
    for kind in ("post", "read", "feed", "repost"):
        out[f"dosn.{kind}_p50_ms"] = median_s(f"dosn.{kind}") * 1e3
    out["dosn.op_p99_ms"] = percentile(latencies(), 0.99) * traced.scale * 1e3
    out["dosn.feed_p99_ms"] = (percentile(latencies("feed"), 0.99)
                               * traced.scale * 1e3)
    out["dosn.add_user_ms"] = median_s("dosn.add_user", setup) * 1e3
    # stack
    for name in ("post", "read"):
        out[f"stack.{name}_self_us"] = (
            measured.get(f"stack.{name}").median_self_ns * traced.scale / 1e3)
    # crypto
    out["crypto.schnorr_keygen_us"] = 1e6 * (
        median_s("crypto.schnorr_keygen")
        or median_s("crypto.schnorr_keygen", setup))
    out["crypto.schnorr_sign_us"] = median_s("crypto.schnorr_sign") * 1e6
    out["crypto.schnorr_verify_us"] = median_s("crypto.schnorr_verify") * 1e6
    out["crypto.modexp_calls_per_op"] = recorder.counts["modexp"] / ops
    out["crypto.stream_mb_s"] = _per(
        measured.units.get("crypto.stream", 0) / 1e6, total_s("crypto.stream"))
    out["crypto.pairing_ms"] = median_s("crypto.pairing") * 1e3
    # acl
    for scheme in SCHEME_REGISTRY:
        out[f"acl.{scheme}.create_group_ms"] = median_s(
            f"acl.{scheme}.create_group", setup) * 1e3
        for name in ("publish", "read", "revoke"):
            out[f"acl.{scheme}.{name}_ms"] = median_s(
                f"acl.{scheme}.{name}") * 1e3
    # integrity
    out["integrity.chain_publish_us"] = median_s(
        "integrity.chain_publish") * 1e6
    out["integrity.chain_accept_us_per_entry"] = median_s(
        "integrity.chain_accept") * 1e6
    # overlay
    for name in ("chord_owner_of", "chord_lookup", "chord_put", "chord_get",
                 "kad_lookup", "kad_put", "kad_get", "net_rpc"):
        out[f"overlay.{name}_us"] = median_s(f"overlay.{name}") * 1e6
    out["overlay.chord_get_many_us_per_key"] = _per(
        total_s("overlay.chord_get_many") * 1e6,
        measured.units.get("overlay.chord_get_many", 0))
    out["overlay.chord_hops_per_lookup"] = _per(
        measured.units.get("overlay.chord_lookup", 0),
        measured.get("overlay.chord_lookup").count)
    out["overlay.kad_msgs_per_lookup"] = _per(
        traced.msgs.get("kad_lookup", 0), len(latencies("kad_lookup")))
    out["overlay.net_rpcs_per_op"] = measured.get("overlay.net_rpc").count / ops
    out["overlay.build_s"] = total_s("overlay.build", setup)
    # storage2
    out["storage2.put_p50_ms"] = median_s("storage2.put") * 1e3
    out["storage2.get_p50_ms"] = median_s("storage2.get") * 1e3
    quorum = traced.counters.get("quorum", 0.0)
    out["storage2.msgs_per_read"] = quorum * _per(
        traced.msgs.get("read", 0), len(latencies("read")))
    out["storage2.msgs_per_write"] = quorum * _per(
        traced.msgs.get("post", 0), len(latencies("post")))
    out["storage2.degraded_read_ratio"] = _per(
        traced.counters.get("degraded_reads", 0.0), len(latencies("read")))
    # cache
    hits = traced.counters.get("cache_hits", 0.0)
    out["cache.hit_ratio"] = _per(
        hits, hits + traced.counters.get("cache_misses", 0.0))
    out["cache.stale_evictions"] = traced.counters.get(
        "cache_invalidations", 0.0)
    out["cache.evictions"] = traced.counters.get("cache_evictions", 0.0)
    out["cache.lookup_us"] = median_s("cache.lookup") * 1e6
    out["cache.insert_us"] = median_s("cache.insert") * 1e6
    out["cache.prefetch_warm_ms"] = median_s("cache.prefetch_warm") * 1e3
    out["cache.cold_feed_ms"] = median_s("dosn.feed", setup) * 1e3
    # faults
    out["faults.channel_call_us"] = median_s("faults.channel_call") * 1e6
    pinned = traced.pinned_ops
    for counter in ("retries", "timeouts", "hedges", "shed",
                    "deadline_expired", "breaker_fastfails"):
        out[f"faults.{counter}_per_op"] = (
            traced.pinned_stats.get(counter, 0) / pinned)
    # membership
    out["membership.setup_s"] = total_s("membership.setup", setup)
    out["membership.bg_wall_share"] = (
        measured.get("membership.swim_rounds").total_ns / 1e9 / traced.wall_s)
    out["membership.msgs_per_virtual_s"] = _per(
        traced.counters.get("pacing_msgs", 0.0),
        traced.counters.get("pacing_virtual_s", 0.0))
    # adversary
    out["adversary.defended_lookup_us"] = median_s(
        "adversary.defended_lookup") * 1e6
    out["adversary.cert_check_us"] = median_s("adversary.cert_check") * 1e6
    out["adversary.misrouted_per_op"] = (
        traced.pinned_stats.get("misrouted", 0) / pinned)
    out["adversary.forged_per_op"] = (
        traced.pinned_stats.get("forged_routes", 0) / pinned)
    out["adversary.quarantined"] = traced.counters.get("quarantined", 0.0)
    # obs
    out["obs.harness_trace_ops_ratio"] = traced.ops_per_s / untraced.ops_per_s
    out["obs.tracer_on_ops_ratio"] = (
        tracer_on.ops_per_s / untraced.ops_per_s if tracer_on else 0.0)
    out["obs.spans_per_op"] = _per(
        tracer_on.counters.get("repo_spans", 0.0) if tracer_on else 0.0,
        tracer_on.ops if tracer_on else 0)
    # workloads
    out["workloads.graph_s"] = total_s("workloads.graph", setup)
    out["workloads.generate_posts_s"] = total_s(
        "workloads.generate_posts", setup)
    # harness: the host's speed as clocked, and every layer's share of the
    # measured wall (which sum to one)
    out["harness.calibration_ms"] = (
        CALIBRATION_REFERENCE_S / traced.scale * 1e3)
    shares = measured.shares(int(traced.wall_s * 1e9))
    for layer in ("dosn", "stack", "crypto", "acl", "integrity", "overlay",
                  "storage2", "cache", "faults", "membership", "adversary",
                  HARNESS):
        out[f"{layer}.self_share"] = shares.get(layer, 0.0)
    return out


def trace_summary(recorder: Recorder, traced: PassResult) -> Dict[str, Any]:
    """Per-key aggregates of the measured phase, as clocked (committed)."""
    measured = Summary(recorder, measured=True)
    wall_ns = int(traced.wall_s * 1e9)
    keys = {
        label: {"count": stats.count,
                "total_ms": round(stats.total_ns / 1e6, 3),
                "self_ms": round(stats.self_ns / 1e6, 3),
                "median_us": round(stats.median_ns / 1e3, 3)}
        for label, stats in sorted(measured.by_key.items())}
    shares = {layer: round(share, 4) for layer, share in
              sorted(measured.shares(wall_ns).items(),
                     key=lambda item: -item[1])}
    return {"ops": traced.ops, "wall_s": round(traced.wall_s, 3),
            "spans": measured.spans, "self_share": shares, "keys": keys}
