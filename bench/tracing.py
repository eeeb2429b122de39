"""Timing wrappers around the program's public entry points (``--trace 1``).

Nothing under ``src/`` is edited: :meth:`SpanRecorder.install` replaces
class and module attributes with wrappers that record a span per call, and
:meth:`SpanRecorder.uninstall` puts the originals back.  A span is
``(id, name, start, end, parent, root, extra)``.  The parent link travels
through a contextvar, so it survives ``await`` and the frontend's worker
thread (the frontend hands its worker a ``copy_context()``).  ``root`` is
the name of the benchmark's own top-level span (``bench.fit``,
``bench.request``, ...) the call happened under, which is how a layer's
numbers are restricted to one phase of a workload.

Spans are kept in memory and written to JSON once the run is over.  A
span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["LAYERS", "SpanRecorder", "self_times"]

#: (module[:Class], attribute, span name).  Every public entry point the
#: per-layer metrics read.  The tier entry points at the end are never
#: called by shipped defaults; they are wrapped so that a change routing
#: default traffic through a tier shows up without a benchmark change.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.data.splits", "chronological_split", "data.splits.split"),
    ("repro.core.layergcn:LayerGCN", "begin_epoch", "graph.pruning.begin_epoch"),
    ("repro.core.layergcn:LayerGCN", "make_batches", "data.pipeline.batch"),
    ("repro.core.layergcn:LayerGCN", "train_step", "models.train_step"),
    ("repro.engine.propagation:PropagationEngine", "forward", "engine.propagation.fwd"),
    ("repro.engine.propagation:PropagationEngine", "backward", "engine.propagation.bwd"),
    ("repro.core.layergcn", "refine_layer", "core.refinement.fwd"),
    ("repro.autograd.tensor:Tensor", "backward", "autograd.backward"),
    ("repro.autograd.optim:Adam", "step", "autograd.optim.step"),
    ("repro.eval.ranking:RankingEvaluator", "evaluate", "eval.ranking.evaluate"),
    ("repro.engine.index:InferenceIndex", "from_model", "engine.index.freeze"),
    ("repro.engine.index:InferenceIndex", "scores", "engine.index.scores"),
    ("repro.eval.ranking", "top_k_indices", "eval.ranking.top_k"),
    ("repro.engine.index:InferenceIndex", "top_k", "engine.index.top_k"),
    ("repro.engine.service:RecommendationService", "top_k", "engine.service.top_k"),
    ("repro.engine.online:OnlineRecommendationService", "ingest", "engine.online.ingest"),
    ("repro.engine.online:OnlineRecommendationService", "compact", "engine.online.compact"),
    ("repro.engine.wal:WriteAheadLog", "append", "engine.wal.append"),
    ("repro.engine.candidates:CandidateIndex", "top_k", "engine.candidates.top_k"),
    ("repro.engine.candidates:ShardedCandidateIndex", "top_k", "engine.candidates.top_k"),
    ("repro.engine.sharding:ShardedInferenceIndex", "top_k", "engine.sharding.top_k"),
)

#: Spans whose calls carry a user batch; the users are kept on the span so
#: each request or ingest can be matched to the call that served it.
_USER_BATCH_SPANS = {"engine.service.top_k", "engine.index.top_k", "engine.online.ingest"}

#: (span id, root name) of the innermost open span in this context.
_CURRENT: ContextVar[Optional[Tuple[int, str]]] = ContextVar("bench_span", default=None)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class SpanRecorder:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        #: [id, name, start, end, parent, root, extra]
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------- #
    def _open(self, name: str) -> Tuple[list, object]:
        current = _CURRENT.get()
        sid = next(self._ids)
        parent, root = (None, name) if current is None else current
        record = [sid, name, time.perf_counter(), None, parent, root, None]
        return record, _CURRENT.set((sid, root))

    def _close(self, record: list, token) -> None:
        record[3] = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(record)

    @contextmanager
    def root(self, name: str, start: Optional[float] = None, extra=None):
        """A top-level benchmark span; ``start`` may predate the call
        (an open-loop request starts at its scheduled send time)."""
        sid = next(self._ids)
        record = [sid, name, start if start is not None else time.perf_counter(),
                  None, None, name, extra]
        token = _CURRENT.set((sid, name))
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(record)

    def record(self, name: str, start: float, end: float) -> None:
        """A span the benchmark measured itself, under the current span."""
        current = _CURRENT.get()
        parent, root = (None, name) if current is None else current
        self.spans.append([next(self._ids), name, start, end, parent, root, None])

    def _wrapper(self, name: str, function):
        recorder = self
        keep_users = name in _USER_BATCH_SPANS

        if name == "data.pipeline.batch":
            # The span is each next() on the epoch iterator, not the call
            # that creates it.
            @functools.wraps(function)
            def traced_batches(*args, **kwargs):
                iterator = function(*args, **kwargs)

                def timed():
                    while True:
                        record, token = recorder._open(name)
                        try:
                            batch = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            recorder._close(record, token)
                        yield batch
                return timed()
            return traced_batches

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record, token = recorder._open(name)
            if keep_users:
                record[6] = np.array(args[1], dtype=np.int64)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(record, token)
        return traced

    # -- patching ---------------------------------------------------------- #
    def install(self) -> None:
        for target, attribute, name in LAYERS:
            owner = _resolve(target)
            own = attribute in vars(owner)
            raw = (vars(owner)[attribute] if own
                   else inspect.getattr_static(owner, attribute))
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrapper(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrapper(name, raw.__func__))
            else:
                patched = self._wrapper(name, raw)
            setattr(owner, attribute, patched)
            self._patches.append((owner, attribute, raw, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw, own = self._patches.pop()
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    def dump(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "root", "users")
        rows = [dict(zip(keys, span[:6]), users=np.asarray(span[6]).tolist()
                     if span[6] is not None else None) for span in self.spans]
        with open(path, "w") as handle:
            json.dump(rows, handle)


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    result = {}
    for sid, _, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(sid, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[sid] = (end - start) - covered
    return result
