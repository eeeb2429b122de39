"""Serving front-end: batched top-K with an LRU result cache.

:class:`RecommendationService` is what sits between a trained model and
anything that wants recommendations — the CLI, the examples,
``Recommender.recommend`` — so the expensive pieces (final embedding
snapshot, exclusion index, top-K partition) are built once and reused across
requests.  Repeated single-user requests hit an LRU cache keyed by
``(user, k, exclude_train)``.

With ``num_shards > 1`` the service routes every request through a
:class:`repro.engine.sharding.ShardedInferenceIndex` — the item catalogue is
partitioned item-wise, each shard ranks its own candidates, and the exact
merge reproduces the unsharded ranking.  ``executor="threads"`` swaps the
serial fan-out for a thread pool (shard scoring is BLAS-bound and releases
the GIL).

With ``candidate_mode`` set (``"int8"`` or ``"float32"``) top-K requests run
the two-stage pipeline of :mod:`repro.engine.candidates`: a quantised
candidate stage selects ``candidate_factor * k`` items per user, an exact
stage rescores and re-ranks them, and every batch carries a certificate
saying whether the result provably equals exhaustive search.  The exact path
stays the default (``candidate_mode=None``) and the correctness oracle;
``certificate_stats`` aggregates how often served batches were certified.

With ``snapshot=…`` the frozen state is not rebuilt at all: the service
adopts the memory-mapped sections of a :mod:`repro.engine.snapshot` artifact
(embeddings, norms, exclusion CSR, quantised blocks) zero-copy, so opening a
service is O(open) regardless of catalogue size, and ``executor="process"``
fans sharded requests out to worker processes that re-open the same file
instead of receiving pickled matrices.  Serving from a snapshot is
bit-identical to serving from the index it was saved from.

With ``executor="remote"`` (plus ``shard_addresses=["host:port", …]``) the
same shard requests cross machine boundaries instead: each address is a
:class:`repro.engine.remote.ShardServer` holding a byte-identical copy of
the snapshot, pinned by a content-fingerprint handshake, and the router
keeps the exact merge — remote serving is bit-identical and fails closed
(a :class:`repro.engine.remote.RemoteShardError`, never a partial merge).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .candidates import CandidateIndex, ShardedCandidateIndex
from .index import InferenceIndex, UserItemIndex
from .observability import metrics, traced
from .sharding import (ProcessExecutor, SerialExecutor, ShardedInferenceIndex,
                       ThreadedExecutor)
from .snapshot import ServingSnapshot, load_snapshot

__all__ = ["EXECUTOR_NAMES", "RecommendationService"]

#: Executor spellings accepted by ``RecommendationService(executor=…)`` and
#: the CLI's ``--executor`` flag.
EXECUTOR_NAMES = ("serial", "threads", "process", "remote")


class RecommendationService:
    """Batched recommendation serving over a frozen :class:`InferenceIndex`.

    Parameters
    ----------
    model:
        Any scorer accepted by :meth:`InferenceIndex.from_model`.  Ignored
        when a prebuilt ``index`` or a ``snapshot`` is given.
    split:
        Split providing the exclusion index; defaults to ``model.split``.
    snapshot:
        A :class:`repro.engine.snapshot.ServingSnapshot` (or a path to one)
        to serve from instead of freezing a model: embeddings, item norms,
        exclusion CSR and quantised candidate blocks are adopted zero-copy
        from the (memory-mapped) snapshot sections, so construction is
        O(open) instead of O(freeze).  The snapshot's dtype wins over
        ``dtype``.  Mutually exclusive with ``index``.
    dtype:
        Serving dtype (``float32`` halves the embedding snapshot's memory).
    batch_size:
        Users per scoring batch in :meth:`top_k` — bounds the peak size of
        the dense ``(batch, num_items)`` score block.
    cache_size:
        Capacity of the per-user LRU result cache (0 disables caching).
    num_shards:
        Partition the item catalogue into this many shards and serve through
        the fan-out/merge path (1 keeps the single-matrix path).
    shard_policy:
        ``"contiguous"`` (default) or ``"strided"`` item partitioning.
    executor:
        The fan-out executor: one of the ``EXECUTOR_NAMES`` strings —
        ``"serial"`` (the default), ``"threads"`` (a thread pool),
        ``"process"`` (multi-process fan-out; requires ``snapshot=…`` because
        worker processes re-open the snapshot file instead of receiving
        pickled matrices) or ``"remote"`` (socket fan-out to
        :class:`repro.engine.remote.ShardServer` endpoints; requires
        ``snapshot=…`` and ``shard_addresses``) — or an executor object from
        :mod:`repro.engine.sharding` (``bind(index)``, ``fan_out(kind,
        *request)``, ``close()``).  With ``num_shards == 1`` and no remote
        addresses a string executor is never constructed at all —
        single-shard serving stays on the single-matrix path and never
        crosses the fan-out seam.  The service owns the executor it resolves
        from a string and shuts it down in :meth:`close` / ``with`` exit.
    shard_addresses:
        One replica set per shard *in shard order*, for
        ``executor="remote"`` (implied when given): ``"host:port"`` for a
        single replica, ``"h1:p1,h2:p2"`` or ``["h1:p1", "h2:p2"]`` for
        redundant replicas the executor fails over across.  ``num_shards``
        left at 1 is inferred as ``len(shard_addresses)``.
    candidate_mode:
        ``None`` (default) serves exact top-K.  ``"int8"`` / ``"float32"``
        switch top-K to the two-stage quantised-candidates + exact-rescoring
        pipeline with per-batch exactness certificates.
    candidate_factor:
        Candidates kept per user in stage 1, as a multiple of ``k``
        (``candidate_factor * k``); must be >= 1.
    candidate_escalation:
        With ``candidate_mode`` set, re-serve the *uncertified* users of each
        batch with a doubled candidate factor (doubling again up to
        ``max_candidate_factor``), then fall back to the exact path for
        whoever is still uncertified — every served list is then provably
        identical to exhaustive search.  Escalation counters land in
        :attr:`certificate_stats`.
    max_candidate_factor:
        Upper bound of the escalation doubling (>= ``candidate_factor``).
    """

    def __init__(self, model=None, split=None, *,
                 index: Optional[InferenceIndex] = None,
                 snapshot=None,
                 dtype=np.float64, batch_size: int = 1024,
                 cache_size: int = 4096, num_shards: int = 1,
                 shard_policy: str = "contiguous",
                 executor=None, shard_addresses=None,
                 candidate_mode: Optional[str] = None,
                 candidate_factor: int = 4,
                 candidate_escalation: bool = False,
                 max_candidate_factor: int = 32) -> None:
        self._snapshot: Optional[ServingSnapshot] = None
        if snapshot is not None:
            if index is not None:
                raise ValueError("provide either snapshot or index, not both")
            if not isinstance(snapshot, ServingSnapshot):
                snapshot = load_snapshot(snapshot)
            self._snapshot = snapshot
            index = snapshot.inference_index()
            dtype = snapshot.dtype
        if index is None:
            if model is None:
                raise ValueError("provide a model, a prebuilt InferenceIndex "
                                 "or a serving snapshot")
            index = InferenceIndex.from_model(model, split, dtype=dtype)
        self.index = index
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.num_shards = int(num_shards)
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.shard_policy = shard_policy
        self.candidate_mode = candidate_mode
        self.candidate_factor = int(candidate_factor)
        self.candidate_escalation = bool(candidate_escalation)
        self.max_candidate_factor = int(max_candidate_factor)
        if self.candidate_escalation and candidate_mode is None:
            raise ValueError("candidate_escalation re-serves uncertified "
                             "users and requires a candidate_mode")
        if (candidate_mode is not None
                and self.max_candidate_factor < self.candidate_factor):
            raise ValueError("max_candidate_factor must be >= candidate_factor")
        # Each entry is one shard's replica set: a "host:port" string (commas
        # separate replicas), an (host, port) pair, or an explicit list of
        # replicas.  List-shaped entries pass through untouched so the
        # remote executor can parse them; everything else normalises to str.
        self.shard_addresses = None if shard_addresses is None else [
            entry if isinstance(entry, (tuple, list)) else str(entry)
            for entry in shard_addresses]
        if self.shard_addresses is not None:
            if not self.shard_addresses:
                raise ValueError("shard_addresses must name at least one "
                                 "shard server")
            if executor is None:
                executor = "remote"
            elif executor != "remote":
                raise ValueError("shard_addresses fan requests out over "
                                 "sockets and only applies to "
                                 "executor='remote'")
        self._executor = self._resolve_executor(executor)
        if getattr(self._executor, "is_remote", False) and self.num_shards == 1:
            # One address per shard: a remote geometry is authoritative even
            # when num_shards was left at its default.
            self.num_shards = int(self._executor.num_shards)
        self._model = model
        self._split = split
        self._dtype = dtype
        self._sharded: Optional[ShardedInferenceIndex] = None
        if self.num_shards > 1 or getattr(self._executor, "is_remote", False):
            # A remote executor always serves through the fan-out seam —
            # even a single shard lives behind its socket.
            self._sharded = ShardedInferenceIndex.from_index(
                index, self.num_shards, policy=shard_policy,
                executor=self._executor)
        self._candidates = self._build_candidates()
        # The LRU cache is shared mutable state: the async front-end's worker
        # thread, a user's own threads and the event loop may all touch it, so
        # every cache mutation happens under one lock.  Scoring itself never
        # holds the lock — a miss computed twice is wasted work, not a bug.
        self._cache_lock = threading.Lock()
        self._cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # user id -> cache keys currently held for that user, so targeted
        # invalidation after an ingest is O(touched users), not O(cache).
        self._user_keys: Dict[int, Set[Tuple[int, int, bool]]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _resolve_executor(self, executor):
        """The fan-out executor: ``executor`` itself, or an owned one built
        for one of the ``EXECUTOR_NAMES``."""
        if executor is None:
            return SerialExecutor()
        if not isinstance(executor, str):
            return executor
        if executor not in EXECUTOR_NAMES:
            raise ValueError(f"unknown executor {executor!r}; "
                             f"options: {EXECUTOR_NAMES}")
        if executor in ("process", "remote") and self._snapshot is None:
            raise ValueError(
                f"executor={executor!r} serves shard requests from the "
                f"snapshot file (remote shards are pinned to it by a "
                f"content-fingerprint handshake) and requires snapshot=…")
        if executor == "remote":
            if not self.shard_addresses:
                raise ValueError(
                    "executor='remote' needs shard_addresses=['host:port', …]"
                    " — one shard-server address per shard, in shard order")
            from .remote import RemoteExecutor

            return RemoteExecutor(self.shard_addresses,
                                  snapshot_path=self._snapshot.path,
                                  policy=self.shard_policy)
        if executor == "serial" or self.num_shards == 1:
            # Single-shard serving never crosses the fan-out seam, so there
            # is no pool to build — requests go straight to the
            # single-matrix path.
            return SerialExecutor()
        if executor == "threads":
            return ThreadedExecutor()
        return ProcessExecutor(self._snapshot.path, self.num_shards,
                               policy=self.shard_policy)

    def _build_candidates(self):
        """The two-stage backend for the current snapshot (or ``None``)."""
        if self.candidate_mode is None:
            if self.candidate_factor < 1:
                raise ValueError("candidate_factor must be a positive integer")
            return None
        if self._sharded is not None:
            if self._snapshot is not None:
                # Slice the stored whole-catalogue block instead of
                # requantising — bit-identical, O(view) for contiguous shards.
                return ShardedCandidateIndex(
                    self._sharded, self.candidate_mode, self.candidate_factor,
                    blocks=self._snapshot.shard_blocks(
                        self.candidate_mode, self.num_shards,
                        self.shard_policy))
            return ShardedCandidateIndex(self._sharded, self.candidate_mode,
                                         self.candidate_factor)
        if self._snapshot is not None:
            return CandidateIndex(
                self.index, self.candidate_mode, self.candidate_factor,
                block=self._snapshot.quantized_block(self.candidate_mode))
        return CandidateIndex(self.index, self.candidate_mode,
                              self.candidate_factor)

    # ------------------------------------------------------------------ #
    @property
    def num_users(self) -> int:
        return self.index.num_users

    @property
    def num_items(self) -> int:
        return self.index.num_items

    @property
    def exclusion(self) -> Optional[UserItemIndex]:
        return self.index.exclusion

    @property
    def sharded(self) -> Optional[ShardedInferenceIndex]:
        """The sharded backend, or ``None`` on the single-matrix path."""
        return self._sharded

    @property
    def snapshot(self) -> Optional[ServingSnapshot]:
        """The snapshot this service was opened from, or ``None``."""
        return self._snapshot

    @property
    def candidates(self):
        """The two-stage candidate backend, or ``None`` on the exact path."""
        return self._candidates

    @property
    def certificate_stats(self) -> Optional[dict]:
        """Aggregate certificate counters, or ``None`` on the exact path."""
        backend = self._candidates
        if backend is None:
            return None
        return {
            "mode": backend.mode,
            "factor": backend.factor,
            "batches": backend.total_batches,
            "certified_batches": backend.certified_batches,
            "users": backend.total_users,
            "certified_users": backend.certified_users,
            "escalation": self.candidate_escalation,
            "max_factor": self.max_candidate_factor,
            "escalation_rounds": backend.escalation_rounds,
            "escalated_users": backend.escalated_users,
            "exact_fallback_users": backend.exact_fallback_users,
        }

    def health_stats(self) -> Optional[dict]:
        """Replica health from the remote executor, or ``None`` when serving
        is local (there are no replicas to monitor)."""
        executor = self._executor
        if getattr(executor, "is_remote", False) \
                and hasattr(executor, "health_stats"):
            return executor.health_stats()
        return None

    @property
    def _backend(self):
        """Where requests go: two-stage candidates, sharded fan-out or the
        plain exact index (in that order of precedence)."""
        if self._candidates is not None:
            return self._candidates
        return self._sharded if self._sharded is not None else self.index

    def refresh(self, model=None) -> "RecommendationService":
        """Re-freeze the model's embeddings (after more training).

        Cached results are dropped only when the re-frozen embeddings
        actually differ from the serving snapshot — a defensive refresh
        (e.g. a train/eval mode flip without weight updates) keeps the whole
        LRU cache warm.  Scorer-fallback snapshots cannot be compared, so
        they always clear.
        """
        model = model if model is not None else self._model
        if model is None:
            raise ValueError("no model to refresh from")
        self._model = model
        fresh = InferenceIndex.from_model(
            model, self._split, dtype=self._dtype, exclusion=self.index.exclusion)
        if not self._snapshot_changed(self.index, fresh):
            # Same embeddings, same exclusion: the frozen stack still serves
            # identical results, so keep everything — the sharded slices, the
            # quantised blocks, the LRU cache and the certificate counters.
            return self
        if self._executor.serves_snapshot:
            # Its workers rebuild from the on-disk snapshot, which still
            # holds the superseded embeddings; carrying the executor over
            # would silently fan requests out to stale matrices.
            raise ValueError(
                "refresh() cannot serve re-frozen embeddings through a "
                "payload-shipping executor (process or remote): its workers "
                "map the superseded snapshot file. Publish a new snapshot "
                "and build a fresh service, or serve with an in-process "
                "executor.")
        self.index = fresh
        # A refresh from a model supersedes the on-disk snapshot: its stored
        # blocks no longer match the serving embeddings, so stop adopting it.
        self._snapshot = None
        if self.num_shards > 1:
            # Re-shard the fresh snapshot; the executor (and its thread pool)
            # carries over so refresh never leaks worker threads.
            self._sharded = ShardedInferenceIndex.from_index(
                self.index, self.num_shards, policy=self.shard_policy,
                executor=self._executor)
        # Quantised blocks snapshot the embeddings too — requantise.
        self._candidates = self._build_candidates()
        self.clear_cache()
        return self

    @staticmethod
    def _snapshot_changed(previous: InferenceIndex,
                          current: InferenceIndex) -> bool:
        """Whether a re-frozen snapshot could serve different results."""
        if not (previous.is_factorized and current.is_factorized):
            return True
        return not (
            previous.user_embeddings.shape == current.user_embeddings.shape
            and np.array_equal(previous.user_embeddings, current.user_embeddings)
            and np.array_equal(previous.item_embeddings, current.item_embeddings))

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
            self._user_keys.clear()
            self.cache_hits = 0
            self.cache_misses = 0

    def invalidate_users(self, users) -> int:
        """Drop cached results of just these users; everyone else stays warm.

        The targeted counterpart of :meth:`clear_cache` for online updates:
        an ingest only changes the touched users' exclusion sets, so only
        their entries can be stale.  The per-user key index makes this
        O(touched users + removed entries) rather than a scan of the whole
        cache.  Hit/miss counters are preserved.  Returns the number of
        entries removed.
        """
        targets = {int(user) for user in np.atleast_1d(np.asarray(users))}
        removed = 0
        with self._cache_lock:
            for user in targets:
                for key in self._user_keys.pop(user, ()):
                    if self._cache.pop(key, None) is not None:
                        removed += 1
        return removed

    def cache_lookup(self, user: int, k: int,
                     exclude_train: bool = True) -> Optional[List[int]]:
        """The cached top-``k`` list for ``user``, or ``None`` on a miss.

        Counts a hit or a miss; returns ``None`` (without counting) when
        caching is disabled.  Thread-safe — this is the probe the async
        front-end uses to resolve requests without forming a batch.
        """
        if self.cache_size <= 0:
            return None
        key = (int(user), int(k), bool(exclude_train))
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is None:
                self.cache_misses += 1
            else:
                self._cache.move_to_end(key)
                self.cache_hits += 1
        if cached is None:
            metrics().inc("service.cache.misses")
            return None
        metrics().inc("service.cache.hits")
        return list(cached)

    def cache_store(self, user: int, k: int, exclude_train: bool,
                    items: Sequence[int]) -> None:
        """Insert one served top-``k`` list, evicting LRU entries over capacity.

        Thread-safe; a no-op when caching is disabled.  Evicted keys are
        dropped from the per-user index so :meth:`invalidate_users` never
        touches dead entries.
        """
        if self.cache_size <= 0:
            return
        key = (int(user), int(k), bool(exclude_train))
        with self._cache_lock:
            self._cache[key] = tuple(int(item) for item in items)
            self._cache.move_to_end(key)
            self._user_keys.setdefault(key[0], set()).add(key)
            while len(self._cache) > self.cache_size:
                evicted, _ = self._cache.popitem(last=False)
                keys = self._user_keys.get(evicted[0])
                if keys is not None:
                    keys.discard(evicted)
                    if not keys:
                        del self._user_keys[evicted[0]]

    def cache_stats(self) -> dict:
        """Point-in-time LRU counters (hits, misses, hit rate, occupancy)."""
        with self._cache_lock:
            hits, misses = self.cache_hits, self.cache_misses
            size = len(self._cache)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "size": size,
            "capacity": self.cache_size,
        }

    def _fault_stats(self) -> Optional[dict]:
        """Injected-fault counters from every attached :class:`FaultPlan`.

        Collects the remote executor's plan and (on the online subclass) the
        WAL's plan; when both point at the same plan object it is reported
        once.  ``fired_events`` lists every fault that actually fired —
        (site, kind, operation index) — so tests and benchmarks can assert
        *which* faults hit without reaching into private state.
        """
        plans = []
        executor_plan = getattr(self._executor, "fault_plan", None)
        if executor_plan is not None:
            plans.append(executor_plan)
        wal = getattr(self, "wal", None)
        wal_plan = getattr(wal, "fault_plan", None)
        if wal_plan is not None and all(wal_plan is not p for p in plans):
            plans.append(wal_plan)
        if not plans:
            return None
        if len(plans) == 1:
            return plans[0].stats()
        merged = [plan.stats() for plan in plans]
        return {
            "plans": merged,
            "fired_events": [event for stats in merged
                             for event in stats["fired_events"]],
        }

    def stats(self) -> dict:
        """One unified serving-stats surface with stable nested keys.

        Subsumes every per-subsystem accessor — each key is exactly what the
        old accessor returns (those accessors all keep working; this is the
        aggregation, not a replacement) — plus the process-local metrics
        registry:

        - ``service``: static geometry (users/items/shards/executor/…)
        - ``cache``: :meth:`cache_stats`
        - ``certificates``: :attr:`certificate_stats` (``None`` on the exact
          path)
        - ``health``: :meth:`health_stats` (``None`` when serving is local)
        - ``online`` / ``wal``: the online subclass's ``online_stats`` /
          ``wal_stats`` (``None`` on a plain service)
        - ``frontend``: the attached async frontend's ``stats()`` (``None``
          when no frontend wraps this service)
        - ``faults``: fired fault-injection events (``None`` without a plan)
        - ``metrics``: :meth:`MetricsRegistry.snapshot` of the global
          registry — counters, gauges and latency histograms
        """
        frontend = getattr(self, "_attached_frontend", None)
        return {
            "service": {
                "num_users": self.num_users,
                "num_items": self.num_items,
                "num_shards": self.num_shards,
                "shard_policy": self.shard_policy,
                "executor": type(self._executor).__name__,
                "candidate_mode": self.candidate_mode,
                "candidate_factor": self.candidate_factor,
                "batch_size": self.batch_size,
                "cache_size": self.cache_size,
            },
            "cache": self.cache_stats(),
            "certificates": self.certificate_stats,
            "health": self.health_stats(),
            "online": getattr(self, "online_stats", None),
            "wal": getattr(self, "wal_stats", None),
            "frontend": None if frontend is None else frontend.stats(),
            "faults": self._fault_stats(),
            "metrics": metrics().snapshot(),
        }

    def _serve_top_k(self, users: np.ndarray, k: int,
                     exclude_train: bool) -> np.ndarray:
        """One backend dispatch, escalation-aware on the candidate path."""
        backend = self._backend
        if self._candidates is not None and self.candidate_escalation:
            return backend.top_k_adaptive(
                users, k, exclude_train=exclude_train,
                max_factor=self.max_candidate_factor)
        return backend.top_k(users, k, exclude_train=exclude_train)

    # ------------------------------------------------------------------ #
    def top_k(self, users: Sequence[int], k: int,
              exclude_train: bool = True) -> np.ndarray:
        """Top-``k`` item ids for a batch of users, shape ``(len(users), k)``.

        Scoring runs in ``batch_size`` blocks so arbitrarily large user
        batches never materialise more than one dense score block at a time.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValueError("users must be a 1-d array of user ids")
        k = int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        width = min(k, self.num_items)
        registry = metrics()
        registry.inc("service.top_k_calls")
        registry.inc("service.top_k_users", users.size)
        out = np.empty((users.size, width), dtype=np.int64)
        with traced("service.top_k"), registry.timer("service.top_k_s"):
            for start in range(0, users.size, self.batch_size):
                block = users[start:start + self.batch_size]
                out[start:start + block.size] = self._serve_top_k(
                    block, k, exclude_train)
        return out

    def recommend(self, user: int, k: int = 10,
                  exclude_train: bool = True) -> List[int]:
        """Cached single-user top-``k`` (the interactive / online entry point)."""
        with traced("service.recommend"):
            cached = self.cache_lookup(user, k, exclude_train)
            if cached is not None:
                return cached
            if self.cache_size <= 0:
                with self._cache_lock:
                    self.cache_misses += 1
            block = np.asarray([int(user)], dtype=np.int64)
            items = [int(item) for item in
                     self._serve_top_k(block, int(k), bool(exclude_train))[0]]
            self.cache_store(user, k, exclude_train, items)
            return items

    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> np.ndarray:
        """Scores of aligned (user, item) pairs — O(batch · dim) when factorised."""
        return self._backend.score_pairs(users, items)

    def close(self) -> None:
        """Release fan-out resources (the executor's thread/process pool).

        Idempotent; the service keeps serving on the single-matrix path
        afterwards but must not fan out again.
        """
        self._executor.close()

    def __enter__(self) -> "RecommendationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        backend = (f", shards={self.num_shards}({self.shard_policy}), "
                   f"executor={self._executor!r}" if self._sharded else "")
        if self._candidates is not None:
            backend += (f", candidates={self.candidate_mode}"
                        f"(x{self.candidate_factor})")
        return (f"RecommendationService(index={self.index!r}{backend}, "
                f"batch_size={self.batch_size}, cache_size={self.cache_size}, "
                f"hits={self.cache_hits}, misses={self.cache_misses})")
