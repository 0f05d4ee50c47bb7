"""Hierarchical tracing keyed to virtual simulation time.

The discrete-event substrate makes wall-clock timestamps meaningless for
most questions the experiments ask ("where does lookup latency go?"), so
spans here are anchored to the simulator's **virtual** clock.  Because the
accounted-RPC shortcut (:meth:`repro.overlay.network.SimNetwork.rpc_issue`)
settles its :class:`~repro.overlay.simulator.Reply`, RTT included, without
advancing the clock, a span additionally carries an explicit **cost** —
the accounted virtual seconds attributed to it — which instrumented code
adds via :meth:`Span.add_cost`.  The exporters aggregate
over cost, not ``end - start``.

Design constraints (see docs/observability.md):

* **determinism** — span ids come from a monotone counter, timestamps from
  the virtual clock, and attributes from protocol state; two runs at the
  same seed produce byte-identical traces.  Wall-clock measurements are
  *segregated* into the ``wall_ns`` field, which exporters exclude unless
  explicitly asked for;
* **near-zero cost when disabled** — the default :class:`NoopTracer`
  hands out one shared no-op span, so an uninstrumented run pays a single
  attribute check plus one method call per span site;
* **parent/child propagation** — synchronous instrumentation nests via a
  span stack; asynchronous hand-offs (``SimNetwork.send`` scheduling a
  delivery) capture the current span id and reparent explicitly with the
  ``parent`` argument to :meth:`Tracer.span`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["NOOP_SPAN", "NOOP_TRACER", "NoopTracer", "Span", "Tracer"]


class Span:
    """One traced operation: a name, virtual-time bounds, and attributes.

    A span opened with ``parallel=True`` models a fan-out whose children
    overlap on the virtual clock: finished children contribute the
    **max** of their costs instead of the sum (message/byte counters are
    network statistics and still add — only latency attribution changes).
    :meth:`settle_cost` overrides the roll-up entirely with an exact
    critical-path value, e.g. a quorum's R-th completion.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "cost",
                 "attrs", "wall_ns", "parallel", "_child_max", "_settled",
                 "_tracer", "_wall_start")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 start: float, tracer: "Tracer",
                 parallel: bool = False) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        #: accounted virtual seconds (RTTs, timeouts, backoff waits)
        self.cost: float = 0.0
        self.attrs: Dict[str, Any] = {}
        #: segregated wall-clock duration; ``None`` unless the tracer
        #: profiles wall time — exporters must keep this out of the
        #: deterministic output
        self.wall_ns: Optional[int] = None
        #: children overlap: they roll up as max, not sum
        self.parallel = parallel
        self._child_max: float = 0.0
        self._settled = False
        self._tracer = tracer
        self._wall_start: Optional[int] = None

    def set_attr(self, key: str, value: Any) -> "Span":
        """Attach one attribute (deterministic values only)."""
        self.attrs[key] = value
        return self

    def add_cost(self, seconds: float) -> "Span":
        """Attribute ``seconds`` of accounted virtual time to this span."""
        self.cost += seconds
        return self

    def settle_cost(self, seconds: float) -> "Span":
        """Pin the span's cost to an exact critical-path value.

        Replaces whatever children rolled up (and suppresses any pending
        parallel roll-up) — used by quorum consumers whose settle point
        is the R-th completion, which neither sum nor max expresses.
        """
        self.cost = seconds
        self._settled = True
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self, failed=exc_type is not None)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, cost={self.cost:.4f})")


class _NoopSpan:
    """The shared do-nothing span handed out by :class:`NoopTracer`."""

    __slots__ = ()

    name = "noop"
    span_id = -1
    parent_id = None
    start = 0.0
    end = 0.0
    cost = 0.0
    wall_ns = None
    attrs: Dict[str, Any] = {}

    parallel = False

    def set_attr(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def add_cost(self, seconds: float) -> "_NoopSpan":
        return self

    def settle_cost(self, seconds: float) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: every span site costs one check and one call."""

    enabled = False

    def span(self, name: str, parent: Optional[int] = None,
             parallel: bool = False, **attrs: Any) -> _NoopSpan:
        return NOOP_SPAN

    @property
    def current(self) -> Optional[Span]:
        return None

    @property
    def current_id(self) -> Optional[int]:
        return None

    @property
    def spans(self) -> List[Span]:
        return []

    def clear(self) -> None:
        pass


#: The process-wide disabled tracer; safe to share (it holds no state).
NOOP_TRACER = NoopTracer()


class Tracer:
    """Collects finished :class:`Span` objects in completion order.

    ``clock`` is a zero-argument callable returning the current virtual
    time — pass ``lambda: sim.now``.  With ``wall_clock=True`` every span
    additionally records its wall-clock duration into the segregated
    ``wall_ns`` field (used to profile crypto CPU cost, which is real even
    though the simulator charges it zero virtual time).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float],
                 wall_clock: bool = False) -> None:
        self._clock = clock
        self.wall_clock = wall_clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, parent: Optional[int] = None,
             parallel: bool = False, **attrs: Any) -> Span:
        """Open a span; use as a context manager.

        The parent defaults to the innermost open span; pass ``parent=``
        to re-link across an asynchronous hand-off (scheduled delivery).
        ``parallel=True`` marks a fan-out whose children overlap: their
        costs roll up as max instead of sum (see :class:`Span`).
        """
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        span = Span(name, self._next_id, parent, self._clock(), self,
                    parallel=parallel)
        self._next_id += 1
        if attrs:
            span.attrs.update(attrs)
        if self.wall_clock:
            span._wall_start = time.perf_counter_ns()
        self._stack.append(span)
        return span

    def _finish(self, span: Span, failed: bool = False) -> None:
        if self.wall_clock and span._wall_start is not None:
            span.wall_ns = time.perf_counter_ns() - span._wall_start
        span.end = self._clock()
        if failed:
            span.attrs.setdefault("error", True)
        # A parallel span's own cost is the max its children reached,
        # unless settle_cost pinned an exact critical path.
        if span.parallel and not span._settled:
            span.cost += span._child_max
        # Roll accounted cost up into the parent so ancestor spans report
        # inclusive cost without the exporters re-walking the tree.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misnested exit (async reparenting)
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        if span.parent_id is not None and self._stack \
                and self._stack[-1].span_id == span.parent_id:
            parent = self._stack[-1]
            if parent.parallel:
                parent._child_max = max(parent._child_max, span.cost)
            else:
                parent.cost += span.cost
        self.spans.append(span)

    # -- introspection --------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    @property
    def current_id(self) -> Optional[int]:
        """The innermost open span's id (for async reparenting)."""
        return self._stack[-1].span_id if self._stack else None

    def clear(self) -> None:
        """Drop collected spans (benchmarks call between phases)."""
        self.spans.clear()
        self._stack.clear()
        self._next_id = 0
