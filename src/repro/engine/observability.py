"""Process-local serving telemetry: a metrics registry and request tracing.

Two cooperating facilities, both designed around one non-negotiable
invariant — **instrumentation never changes results**.  Every hook in the
serving stack reads ``time.perf_counter`` and bumps process-local state;
nothing feeds back into scoring, merging, caching, or the wire protocol's
array payloads, so serving with telemetry on is bit-identical to serving
with the no-op registry (pinned by parity tests and
``benchmarks/bench_observability.py``).

**Metrics registry** — named counters, gauges, and fixed-bucket latency
histograms.  Histograms keep a numpy-backed bucket vector (log-spaced
bounds from 1 µs to 50 s by default) plus a bounded window of raw samples
so ``summary()`` reports *exact* p50/p90/p99 over recent observations,
computed by :func:`percentile` (pinned against ``np.percentile`` by tests;
the benchmarks' latency summaries use it too).  The process-global registry is
swappable: ``set_metrics(NullMetricsRegistry())`` turns every hook into a
no-op, which is how the overhead benchmark measures the cost of telemetry
itself.

Instrument catalogue (stable names; ``_s`` suffix = seconds histogram):

================================  =============================================
``frontend.requests`` etc.        batch assembly / flush / shed counters,
                                  ``frontend.flush_s``, ``frontend.batch_occupancy``
``service.top_k_s``               per-call serving latency; ``service.cache.hits``
                                  / ``.misses`` count cache probes
``candidates.stage1_s`` / ``2_s`` quantised bound pass vs exact rescore,
                                  plus escalation / exact-fallback counters
``sharding.fan_out_s``            executor fan-out wall time; ``sharding.merge_s``
                                  the certified merge; ``sharding.shard.<i>.task_s``
                                  one shard request, in the process that ran it
``remote.request_s``              per round-trip; ``remote.shard.<i>.request_s``
                                  per shard; retries / failovers / breaker
                                  transition counters
``wal.append_s`` / ``fsync_s``    durability path; replay / rotate counters
``online.ingest_s`` etc.          ingest / compact / publish
``server.request_s``              shard-server side execution
================================  =============================================

**Request tracing** — a :class:`TraceContext` (trace id + span stack)
propagated via :mod:`contextvars` through asyncio coroutines and — with an
explicit ``contextvars.copy_context().run`` at the frontend's executor
seam — into the scoring worker thread.  ``traced(name)`` opens a root
trace when a :class:`Tracer` is installed (``set_tracer``) and no trace is
active, or a child span otherwise; with no tracer it is a no-op.  Trace
ids ride the remote wire protocol's JSON meta (never the array payloads):
the router stamps ``fields["trace"] = {"id": ...}`` into each request and
the shard server answers with its own timed spans, which the router
stitches back into the live trace — so one request tree spans processes.
Garbled or missing trace meta always degrades to an untraced request,
never an error.  Completed traces land in the tracer's bounded ring
buffer; ``Tracer.slowest(n)`` backs the CLI's ``--trace N`` flag.
"""
from __future__ import annotations

import bisect
import contextvars
import os
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "percentile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "metrics",
    "set_metrics",
    "Span",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "current_trace",
    "traced",
    "span",
    "format_trace",
    "trace_request_fields",
    "shard_reply_trace",
    "parse_wire_spans",
]

# Log-spaced latency bounds: 1 µs .. 50 s in a 1 / 2.5 / 5 ladder, plus an
# implicit overflow bucket.  Fixed at registration so bucket counts from
# different processes / runs line up column-for-column.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** exponent * mantissa, 12)
    for exponent in range(-6, 2)
    for mantissa in (1.0, 2.5, 5.0)
)

#: Power-of-two bounds for size-shaped histograms (batch occupancy).
COUNT_BUCKETS: Tuple[float, ...] = tuple(float(2 ** i) for i in range(13))

#: Raw samples retained per histogram for exact percentile reporting.
DEFAULT_SAMPLE_WINDOW = 4096


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact percentile with linear interpolation.

    Numpy's default ``np.percentile`` interpolation: the rank
    ``(n - 1) * q / 100`` is split into its integer neighbours and the value
    interpolated between them.  Pinned against ``np.percentile`` by
    ``tests/engine/test_observability.py``.  Raises ``ValueError`` on an
    empty sample set or a ``q`` outside [0, 100].
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(float(s) for s in samples)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    fraction = rank - low
    if not fraction:
        return ordered[low]
    return ordered[low] * (1.0 - fraction) + ordered[low + 1] * fraction


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A named point-in-time value (last write wins)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram plus a bounded raw-sample window.

    Buckets give the coarse shape (bucket ``i`` counts observations in
    ``(bounds[i-1], bounds[i]]``; the final slot is overflow); the sample
    window keeps the last *window* raw values so percentiles are exact
    over recent traffic rather than bucket-interpolated.
    """

    __slots__ = ("name", "bounds", "_counts", "_window", "_pos", "_filled",
                 "_count", "_total", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None,
                 window: int = DEFAULT_SAMPLE_WINDOW) -> None:
        self.name = name
        bounds = tuple(sorted(float(b) for b in
                              (DEFAULT_LATENCY_BUCKETS if buckets is None
                               else buckets)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._window = np.zeros(max(1, int(window)), dtype=np.float64)
        self._pos = 0
        self._filled = 0
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect.bisect_left(self.bounds, value)] += 1
            self._window[self._pos] = value
            self._pos = (self._pos + 1) % self._window.shape[0]
            self._filled = min(self._filled + 1, self._window.shape[0])
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    def samples(self) -> np.ndarray:
        """The retained raw-sample window (most recent observations)."""
        with self._lock:
            return self._window[:self._filled].copy()

    def percentile(self, q: float) -> float:
        return percentile(self.samples(), q)

    def summary(self) -> Dict[str, object]:
        with self._lock:
            retained = self._window[:self._filled].copy()
            count = self._count
            total = self._total
            low = self._min
            high = self._max
            counts = self._counts.tolist()
        if count == 0:
            return {"count": 0}
        return {
            "count": count,
            "total": total,
            "mean": total / count,
            "min": low,
            "max": high,
            "p50": percentile(retained, 50),
            "p90": percentile(retained, 90),
            "p99": percentile(retained, 99),
            "buckets": {"bounds": list(self.bounds), "counts": counts},
        }


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Process-local, lock-cheap registry of named instruments.

    Instrument lookup is a plain dict probe (no lock on the hot path —
    creation falls back to a locked ``setdefault``); counters and
    histograms take a short per-instrument lock only while mutating their
    own state.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, buckets))
        return instrument

    # Convenience single-call forms — these are what the engine hot paths
    # use, so NullMetricsRegistry can void them wholesale.
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        self.histogram(name, buckets).observe(value)

    def timer(self, name: str):
        """Context manager observing elapsed ``perf_counter`` seconds."""
        return _Timer(self.histogram(name))

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "enabled": self.enabled,
            "counters": {name: counters[name].value
                         for name in sorted(counters)},
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {name: histograms[name].summary()
                           for name in sorted(histograms)},
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class NullMetricsRegistry(MetricsRegistry):
    """Same surface, no work — the telemetry-off baseline."""

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        pass

    def timer(self, name: str):
        return _NULL_TIMER

    def snapshot(self) -> Dict[str, object]:
        return {"enabled": False, "counters": {}, "gauges": {},
                "histograms": {}}


_metrics: MetricsRegistry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global registry every instrumentation point writes to."""
    return _metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry; returns the previous one."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------

class Span:
    """One timed operation inside a trace; spans nest into a tree."""

    __slots__ = ("name", "origin", "started", "duration", "children")

    def __init__(self, name: str, origin: str = "local") -> None:
        self.name = name
        self.origin = origin
        self.started = time.perf_counter()
        self.duration: Optional[float] = None
        self.children: List["Span"] = []

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "origin": self.origin,
            "duration_ms": (None if self.duration is None
                            else self.duration * 1e3),
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        ms = "?" if self.duration is None else f"{self.duration * 1e3:.3f}"
        return f"Span({self.name!r}, origin={self.origin!r}, {ms} ms)"


class TraceContext:
    """A trace id plus the span stack for one logical request.

    Propagated through asyncio via a :mod:`contextvars` variable; the
    frontend copies the context across its ``run_in_executor`` seam so the
    scoring worker thread lands inside the same trace.
    """

    __slots__ = ("trace_id", "root", "_stack")

    def __init__(self, name: str, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id else os.urandom(8).hex()
        self.root = Span(name)
        self._stack: List[Span] = [self.root]

    def push(self, name: str, origin: str = "local") -> Span:
        child = Span(name, origin)
        self._stack[-1].children.append(child)
        self._stack.append(child)
        return child

    def pop(self, span_: Span) -> None:
        if span_.duration is None:
            span_.duration = time.perf_counter() - span_.started
        if self._stack and self._stack[-1] is span_:
            self._stack.pop()

    def attach(self, spans: Sequence[Span]) -> None:
        """Adopt already-finished spans (e.g. parsed off a shard reply)."""
        self._stack[-1].children.extend(spans)

    def finish(self) -> None:
        while len(self._stack) > 1:          # abandoned children, if any
            self.pop(self._stack[-1])
        if self.root.duration is None:
            self.root.duration = time.perf_counter() - self.root.started

    @property
    def duration(self) -> float:
        if self.root.duration is not None:
            return self.root.duration
        return time.perf_counter() - self.root.started

    def spans(self) -> Iterator[Span]:
        """Depth-first walk over every span in the tree."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def format_tree(self) -> str:
        return format_trace(self)

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "duration_ms": self.duration * 1e3,
            "root": self.root.as_dict(),
        }

    def __repr__(self) -> str:
        return (f"TraceContext(id={self.trace_id}, name={self.root.name!r}, "
                f"{self.duration * 1e3:.3f} ms)")


def format_trace(trace: TraceContext) -> str:
    lines = [f"trace {trace.trace_id} · {trace.duration * 1e3:.3f} ms"]

    def walk(span_: Span, prefix: str, is_last: bool) -> None:
        joint = "└─ " if is_last else "├─ "
        ms = ("?" if span_.duration is None
              else f"{span_.duration * 1e3:.3f} ms")
        origin = "" if span_.origin == "local" else f" [{span_.origin}]"
        lines.append(f"{prefix}{joint}{span_.name}{origin}  {ms}")
        child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(span_.children):
            walk(child, child_prefix, i == len(span_.children) - 1)

    ms = ("?" if trace.root.duration is None
          else f"{trace.root.duration * 1e3:.3f} ms")
    lines.append(f"{trace.root.name}  {ms}")
    for i, child in enumerate(trace.root.children):
        walk(child, "", i == len(trace.root.children) - 1)
    return "\n".join(lines)


_TRACE_VAR: "contextvars.ContextVar[Optional[TraceContext]]" = \
    contextvars.ContextVar("repro_trace", default=None)

_tracer: Optional["Tracer"] = None


class Tracer:
    """Bounded ring buffer of completed traces."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = int(capacity)
        self._traces: "deque[TraceContext]" = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def record(self, trace: TraceContext) -> None:
        with self._lock:
            self._traces.append(trace)

    @property
    def traces(self) -> List[TraceContext]:
        with self._lock:
            return list(self._traces)

    def slowest(self, n: int) -> List[TraceContext]:
        """The ``n`` slowest retained traces, slowest first."""
        retained = self.traces
        retained.sort(key=lambda t: t.duration, reverse=True)
        return retained[:max(0, int(n))]

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


def get_tracer() -> Optional[Tracer]:
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or remove, with ``None``) the global tracer; returns the
    previous one.  With no tracer installed, ``traced`` and ``span`` are
    near-free no-ops."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def current_trace() -> Optional[TraceContext]:
    return _TRACE_VAR.get()


class _TracedHandle:
    """``traced(name)``: root trace if a tracer is installed and none is
    active; child span of the active trace otherwise; else a no-op."""

    __slots__ = ("name", "_trace", "_span", "_token", "_tracer", "_active")

    def __init__(self, name: str) -> None:
        self.name = name
        self._trace = None
        self._span = None
        self._token = None
        self._tracer = None
        self._active = None

    def __enter__(self) -> "_TracedHandle":
        active = _TRACE_VAR.get()
        if active is not None:
            self._active = active
            self._span = active.push(self.name)
        else:
            tracer = _tracer
            if tracer is not None:
                self._tracer = tracer
                self._trace = TraceContext(self.name)
                self._token = _TRACE_VAR.set(self._trace)
        return self

    def __exit__(self, *exc) -> None:
        if self._span is not None:
            self._active.pop(self._span)
        elif self._trace is not None:
            _TRACE_VAR.reset(self._token)
            self._trace.finish()
            self._tracer.record(self._trace)


class _SpanHandle:
    """``span(name)``: child span of the active trace, else a no-op."""

    __slots__ = ("name", "origin", "_trace", "_span")

    def __init__(self, name: str, origin: str) -> None:
        self.name = name
        self.origin = origin
        self._trace = None
        self._span = None

    def __enter__(self) -> "_SpanHandle":
        trace = _TRACE_VAR.get()
        if trace is not None:
            self._trace = trace
            self._span = trace.push(self.name, self.origin)
        return self

    def __exit__(self, *exc) -> None:
        if self._span is not None:
            self._trace.pop(self._span)


def traced(name: str) -> _TracedHandle:
    return _TracedHandle(name)


def span(name: str, origin: str = "local") -> _SpanHandle:
    return _SpanHandle(name, origin)


# --------------------------------------------------------------------------
# Wire-protocol trace meta (remote executor <-> shard server)
# --------------------------------------------------------------------------
# Trace identity rides the JSON meta of the framed protocol, never the
# array payloads: requests carry {"trace": {"id": ...}}, replies carry
# {"trace": {"id": ..., "spans": [...]}}.  Every parser below swallows
# malformed input — garbled trace meta means an untraced request, never a
# failed one.

def trace_request_fields(trace: Optional[TraceContext]) -> Dict[str, object]:
    """Extra request fields announcing the active trace (empty when none)."""
    if trace is None:
        return {}
    return {"trace": {"id": trace.trace_id}}


def shard_reply_trace(request_fields: Dict[str, object], *, shard_id: int,
                      kind: str, duration: float) -> Dict[str, object]:
    """Reply fields echoing the request's trace id with the server's span.

    Returns ``{}`` when the request carried no (well-formed) trace meta.
    """
    try:
        meta = request_fields.get("trace")
        if not isinstance(meta, dict):
            return {}
        trace_id = meta.get("id")
        if not isinstance(trace_id, str) or not trace_id:
            return {}
        return {"trace": {
            "id": trace_id,
            "spans": [{"name": f"shard{int(shard_id)}.{kind}",
                       "origin": "shard", "duration_s": float(duration)}],
        }}
    except Exception:
        return {}


def parse_wire_spans(reply_fields: Dict[str, object],
                     trace_id: str) -> List[Span]:
    """Spans from a shard reply, or ``[]`` on any mismatch or garbage."""
    spans: List[Span] = []
    try:
        meta = reply_fields.get("trace")
        if not isinstance(meta, dict) or meta.get("id") != trace_id:
            return []
        for item in meta.get("spans", []):
            parsed = Span(str(item["name"]),
                          origin=str(item.get("origin", "shard")))
            parsed.duration = float(item["duration_s"])
            spans.append(parsed)
    except Exception:
        return []
    return spans
