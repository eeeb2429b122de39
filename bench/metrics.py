"""Metric tables and the per-layer numbers derived from a span trace.

Every workload reports every metric, as the result line requires.  A layer
a workload never calls reports 0 for its time and its count.  Times of a
layer are means per call (``_ms``) so they compare across runs of different
length; ``_self_ms`` subtracts the time child spans cover.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from tracing import self_times

__all__ = ["END_TO_END", "PER_LAYER", "percentile", "layer_metrics"]

#: name -> (unit, better).  Taken from untraced runs.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "rank_users_per_s": ("users/s", "higher"),
    "recall_at_20": ("ratio", "higher"),
}

#: name -> (unit, better).  Taken from traced runs.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # train, moving throughput_per_s
    "graph.pruning.begin_epoch_ms": ("ms", "lower"),
    "data.pipeline.batch_ms": ("ms", "lower"),
    "engine.propagation.fwd_ms": ("ms", "lower"),
    "engine.propagation.fwd_calls": ("count", "lower"),
    "engine.propagation.bwd_ms": ("ms", "lower"),
    "engine.propagation.bwd_calls": ("count", "lower"),
    "core.refinement.fwd_ms": ("ms", "lower"),
    "models.train_step_self_ms": ("ms", "lower"),
    "autograd.backward_self_ms": ("ms", "lower"),
    "autograd.optim.step_ms": ("ms", "lower"),
    # train, moving rank_users_per_s
    "eval.ranking.evaluate_ms": ("ms", "lower"),
    "engine.index.freeze_ms": ("ms", "lower"),
    "engine.index.scores_ms": ("ms", "lower"),
    "eval.ranking.top_k_ms": ("ms", "lower"),
    # train, moving setup_s
    "data.splits.split_s": ("s", "lower"),
    # serve-batch, moving throughput_per_s
    "engine.service.top_k_ms": ("ms", "lower"),
    "engine.index.top_k_us_per_user": ("us", "lower"),
    # serve-zipf and serve-mixed, moving p50_ms and tail_ms
    "engine.frontend.queue_wait_p50_ms": ("ms", "lower"),
    "engine.frontend.queue_wait_p99_ms": ("ms", "lower"),
    "engine.frontend.loop_wait_p50_ms": ("ms", "lower"),
    "engine.frontend.loop_wait_p99_ms": ("ms", "lower"),
    "engine.frontend.batch_occupancy": ("count", "higher"),
    "engine.frontend.worker_busy_share": ("ratio", "lower"),
    "engine.service.cache_hit_ratio": ("ratio", "higher"),
    "engine.service.cache_lookups": ("count", "higher"),
    # serve-mixed, moving tail_ms through worker contention
    "engine.online.ingest_ms": ("ms", "lower"),
    "engine.online.compact_ms": ("ms", "lower"),
    "engine.online.compact_calls": ("count", "lower"),
    "engine.online.invalidated_entries": ("count", "lower"),
    "engine.wal.append_ms": ("ms", "lower"),
    "engine.wal.syncs": ("count", "lower"),
    # opt-in tiers: 0 calls under shipped defaults
    "engine.candidates.top_k_calls": ("count", "lower"),
    "engine.candidates.top_k_ms": ("ms", "lower"),
    "engine.candidates.certified_ratio": ("ratio", "higher"),
    "engine.sharding.top_k_calls": ("count", "lower"),
    "engine.sharding.top_k_ms": ("ms", "lower"),
    # the trace itself
    "bench.accounted_share": ("ratio", "higher"),
    "bench.trace_overhead": ("ratio", "lower"),
}

#: Benchmark span names that are not measured work.
_UNMEASURED_ROOTS = {"bench.setup"}


def percentile(values: Iterable[float], q: float) -> float:
    values = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


class _Spans:
    """Index over a span list: by name, by id, and by ancestry."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.by_name: Dict[str, List[list]] = {}
        for span in spans:
            self.by_name.setdefault(span[1], []).append(span)
        self.self_time = self_times(spans)

    def has_ancestor(self, span: list, name: str) -> bool:
        parent = self.by_id.get(span[4])
        while parent is not None:
            if parent[1] == name:
                return True
            parent = self.by_id.get(parent[4])
        return False

    def select(self, name: str, roots: Optional[Iterable[str]] = None,
               under: Optional[str] = None) -> List[list]:
        chosen = self.by_name.get(name, [])
        if roots is not None:
            roots = set(roots)
            chosen = [span for span in chosen if span[5] in roots]
        if under is not None:
            chosen = [span for span in chosen if self.has_ancestor(span, under)]
        return chosen

    def mean_ms(self, spans: List[list], own: bool = False) -> float:
        if not spans:
            return 0.0
        if own:
            total = sum(self.self_time[span[0]] for span in spans)
        else:
            total = sum(span[3] - span[2] for span in spans)
        return 1e3 * total / len(spans)


def _calls_by_user(index: _Spans, name: str) -> Dict[int, List[Tuple[float, float]]]:
    """User -> sorted ``(start, end)`` of every ``name`` call whose batch held it."""
    calls: Dict[int, List[Tuple[float, float]]] = {}
    for span in index.by_name.get(name, []):
        for user in span[6].tolist():
            calls.setdefault(user, []).append((span[2], span[3]))
    for intervals in calls.values():
        intervals.sort()
    return calls


def _served_by(calls, root: list) -> Optional[Tuple[float, float]]:
    """The first call holding the root's user that runs inside the root.

    A request that missed the LRU joined a batch, and an ingest joined an
    ingest batch; the call that served it holds its user.  A request
    answered from the cache has none.
    """
    intervals = calls.get(root[6], ())
    position = bisect_left(intervals, (root[2], float("-inf")))
    for start, end in intervals[position:]:
        if end <= root[3]:
            return start, end
    return None


def _queue_waits(index: _Spans) -> List[float]:
    """Request latency minus the ``service.top_k`` call that served it."""
    calls = _calls_by_user(index, "engine.service.top_k")
    waits = []
    for request in index.by_name.get("bench.request", []):
        call = _served_by(calls, request)
        if call is not None:
            waits.append(1e3 * ((request[3] - request[2]) - (call[1] - call[0])))
    return waits


def layer_metrics(spans: List[list], window_s: float,
                  stats: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value except ``bench.trace_overhead``.

    ``stats`` carries the program's own counters read after the window
    (frontend occupancy, LRU hits/lookups, WAL syncs, certificates,
    invalidated entries).
    """
    index = _Spans(spans)
    fit, evaluate = ("bench.fit",), ("bench.evaluate",)
    served = ("bench.chunk", "bench.request", "bench.ingest")
    values: Dict[str, float] = {}

    values["graph.pruning.begin_epoch_ms"] = index.mean_ms(
        index.select("graph.pruning.begin_epoch", fit))
    values["data.pipeline.batch_ms"] = index.mean_ms(
        index.select("data.pipeline.batch", fit))
    forward = index.select("engine.propagation.fwd", fit, under="models.train_step")
    backward = index.select("engine.propagation.bwd", fit)
    values["engine.propagation.fwd_ms"] = index.mean_ms(forward)
    values["engine.propagation.fwd_calls"] = float(len(forward))
    values["engine.propagation.bwd_ms"] = index.mean_ms(backward)
    values["engine.propagation.bwd_calls"] = float(len(backward))
    values["core.refinement.fwd_ms"] = index.mean_ms(
        index.select("core.refinement.fwd", fit, under="models.train_step"))
    values["models.train_step_self_ms"] = index.mean_ms(
        index.select("models.train_step", fit), own=True)
    values["autograd.backward_self_ms"] = index.mean_ms(
        index.select("autograd.backward", fit), own=True)
    values["autograd.optim.step_ms"] = index.mean_ms(
        index.select("autograd.optim.step", fit))

    values["eval.ranking.evaluate_ms"] = index.mean_ms(
        index.select("eval.ranking.evaluate", evaluate))
    values["engine.index.freeze_ms"] = index.mean_ms(
        index.select("engine.index.freeze", evaluate))
    values["engine.index.scores_ms"] = index.mean_ms(
        index.select("engine.index.scores", evaluate))
    values["eval.ranking.top_k_ms"] = index.mean_ms(
        index.select("eval.ranking.top_k", evaluate))
    split = index.select("data.splits.split", ("bench.setup",))
    values["data.splits.split_s"] = index.mean_ms(split) / 1e3

    values["engine.service.top_k_ms"] = index.mean_ms(
        index.select("engine.service.top_k", served))
    index_calls = index.select("engine.index.top_k", served)
    ranked = sum(len(span[6]) for span in index_calls)
    values["engine.index.top_k_us_per_user"] = (
        1e6 * sum(span[3] - span[2] for span in index_calls) / ranked
        if ranked else 0.0)

    waits = _queue_waits(index)
    values["engine.frontend.queue_wait_p50_ms"] = percentile(waits, 50)
    values["engine.frontend.queue_wait_p99_ms"] = percentile(waits, 99)
    loop_waits = [1e3 * (span[3] - span[2])
                  for span in index.by_name.get("engine.frontend.loop_wait", [])]
    values["engine.frontend.loop_wait_p50_ms"] = percentile(loop_waits, 50)
    values["engine.frontend.loop_wait_p99_ms"] = percentile(loop_waits, 99)
    values["engine.frontend.batch_occupancy"] = float(stats.get("batch_occupancy", 0.0))
    worker = (index.select("engine.service.top_k", ("bench.request", "bench.ingest"))
              + index.select("engine.online.ingest", ("bench.request", "bench.ingest")))
    values["engine.frontend.worker_busy_share"] = (
        sum(span[3] - span[2] for span in worker) / window_s if worker else 0.0)
    lookups = float(stats.get("cache_lookups", 0.0))
    values["engine.service.cache_hit_ratio"] = (
        float(stats.get("cache_hits", 0.0)) / lookups if lookups else 0.0)
    values["engine.service.cache_lookups"] = lookups

    values["engine.online.ingest_ms"] = index.mean_ms(
        index.select("engine.online.ingest", served))
    compactions = index.select("engine.online.compact", served)
    values["engine.online.compact_ms"] = index.mean_ms(compactions)
    values["engine.online.compact_calls"] = float(len(compactions))
    values["engine.online.invalidated_entries"] = float(stats.get("invalidated", 0.0))
    values["engine.wal.append_ms"] = index.mean_ms(
        index.select("engine.wal.append", served))
    values["engine.wal.syncs"] = float(stats.get("wal_syncs", 0.0))

    candidates = index.select("engine.candidates.top_k", served)
    values["engine.candidates.top_k_calls"] = float(len(candidates))
    values["engine.candidates.top_k_ms"] = index.mean_ms(candidates)
    values["engine.candidates.certified_ratio"] = float(stats.get("certified_ratio", 0.0))
    shards = index.select("engine.sharding.top_k", served)
    values["engine.sharding.top_k_calls"] = float(len(shards))
    values["engine.sharding.top_k_ms"] = index.mean_ms(shards)

    values["bench.accounted_share"] = accounted_share(index)
    return values


def accounted_share(index: _Spans) -> float:
    """Share of the blocking path that the traced layers explain.

    The blocking path is the benchmark's root spans: a fit, an evaluation,
    a chunk, and each open-loop request or ingest from its send.  A root on
    the main thread is explained by its child spans; what they leave is its
    self time.  An open-loop root is explained by three measured intervals
    only: its wait for the event loop (``engine.frontend.loop_wait``), its
    wait in the frontend's batch queue from its first step to the start of
    the call that served it, and that call (``engine.service.top_k`` or
    ``engine.online.ingest``).  The hand-back of the result to the event
    loop and a cache hit's own lookup stay unexplained.
    """
    served = {"bench.request": _calls_by_user(index, "engine.service.top_k"),
              "bench.ingest": _calls_by_user(index, "engine.online.ingest")}
    loop_ready = {span[4]: span[3]
                  for span in index.by_name.get("engine.frontend.loop_wait", [])}
    total = explained = 0.0
    for span in index.spans:
        if (span[4] is not None or not span[1].startswith("bench.")
                or span[1] in _UNMEASURED_ROOTS):
            continue
        total += span[3] - span[2]
        if span[1] in served:
            call = _served_by(served[span[1]], span)
            end = call[1] if call is not None else loop_ready.get(span[0], span[2])
            explained += end - span[2]
        else:
            explained += (span[3] - span[2]) - index.self_time[span[0]]
    return explained / total if total > 0 else 0.0
