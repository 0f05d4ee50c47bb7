"""Fault injection and resilience for the overlay fabric.

Section I of the paper frames decentralization as trading the provider's
reliability for peer unreliability ("users, their friends, or other peers
need to be online for better availability").  This package makes that
trade-off measurable instead of assumed:

* :mod:`repro.faults.plan` — a :class:`FaultPlan` of injectable faults
  (correlated loss bursts, partitions, slow links, crash/restart with
  state loss, message corruption), deterministic from the simulator seed
  and scriptable over virtual time;
* :mod:`repro.faults.resilience` — :class:`ReliableChannel`, the
  timeout/retry/backoff/circuit-breaker/hedging wrapper the DHT lookups
  and storage fetches route through to survive the injected faults;
* :mod:`repro.faults.byzantine` — holder-level Byzantine faults
  (:class:`StaleServe`, :class:`Equivocate`, :class:`CorruptBlob`):
  replica peers that serve stale, forked, or garbled data, the adversary
  the quorum-read store (:mod:`repro.storage2`) is built to defeat;
* :mod:`repro.faults.overload` — the overload-protection stack
  (:class:`ServiceConfig` per-peer service queues with load shedding,
  :class:`Deadline` propagation, :class:`RetryBudget` token buckets,
  :class:`AdaptiveTimeout` EWMA attempt timeouts), threaded through the
  fabric by :class:`OverloadConfig` and exercised by experiment E18.

Experiment E12 (``benchmarks/bench_fault_tolerance.py``) sweeps fault
intensity against resilience policy; E14
(``benchmarks/bench_durability.py``) adds the Byzantine holder sweep.
"""

from repro.faults.byzantine import (CorruptBlob, Equivocate, HolderFault,
                                    StaleServe)
from repro.faults.overload import (AdaptiveTimeout, Deadline,
                                   OverloadConfig, RetryBudget,
                                   ServiceConfig)
from repro.faults.plan import (Corruption, Crash, FaultPlan, LossBurst,
                               Partition, SlowLink)
from repro.faults.resilience import (BREAKER_STATE_VALUES, CircuitBreaker,
                                     ReliableChannel, RetryPolicy)

__all__ = [
    "AdaptiveTimeout", "BREAKER_STATE_VALUES",
    "CircuitBreaker", "CorruptBlob", "Corruption", "Crash", "Deadline",
    "Equivocate", "FaultPlan", "HolderFault", "LossBurst", "OverloadConfig",
    "Partition", "ReliableChannel", "RetryBudget", "RetryPolicy",
    "ServiceConfig", "SlowLink", "StaleServe",
]
