"""Async micro-batching front-end: coalesce concurrent requests into batches.

Production traffic is not pre-formed batches — it is thousands of concurrent
single-user ``recommend`` calls plus a live event stream.  Served naively,
each call degenerates into a batch-size-1 matmul plus one executor round
trip, so throughput is bounded by per-request overhead instead of by the
hardware.  :class:`AsyncRecommendationFrontend` restores the batch shape the
engine is built for, without the callers ever cooperating:

* **Work-conserving coalescing.**  Concurrent ``await
  frontend.recommend(user, k)`` calls are grouped per ``(k, exclude_train)``
  signature, and each group is served by ONE
  :meth:`RecommendationService.top_k` batch.  No timer holds a request back:
  when the worker is idle, a miss goes out on the next event-loop iteration,
  together with whatever else was submitted in the same tick.  While a batch
  is in flight, new misses accumulate and go out as the next batches the
  moment it finishes, at most ``max_batch_size`` rows per call.  Batches are
  therefore as large as the load makes them — one row under light traffic,
  full under saturation.  Results fan back out per-future, one row per
  waiter.
* **Ingest coalescing.**  ``await frontend.ingest(users, items)`` calls pool
  their events the same way, in the same first-come queue as the reads, so
  one overlay merge and one targeted LRU invalidation pass amortise across
  the producers that arrived while the worker was busy.  Every waiter
  receives the coalesced batch's stats dict.
* **Backpressure.**  At most ``max_pending`` requests may be queued or in
  flight.  Above that the frontend sheds load: ``shed="reject"`` raises
  :class:`OverloadedError` immediately (the caller can retry with jitter),
  ``shed="block"`` awaits capacity.  Shed requests never enter a batch, so
  the queue stays consistent.
* **Never block the event loop.**  Batched scoring and ingestion run on ONE
  worker thread (shard matmuls release the GIL; a single worker also
  serialises ingest mutations against scoring reads, so the frontend needs
  no locks around the service's index structures).

Exactness contract: a coalesced batch is served by the *same*
:meth:`RecommendationService.top_k` the caller would have used directly, so
every row is the exact top-K of the scores that call computed.  Those scores
are not always bit-identical to a one-user call: NumPy scores a one-user
batch with a matrix-vector product (gemv) and a multi-user batch with a
matrix-matrix product (gemm), and on the benchmark's serving world the two
differ by up to ~1e-13 (gemm rows were bit-stable across batch sizes 2 to
256).  A coalesced result therefore equals ``service.top_k([user], k)``
except where two candidates' scores lie within that rounding of each other,
where the tied pair may swap.  The closed-loop benchmark
(``benchmarks/bench_async_frontend.py``) gates this parity along with the
throughput and p99-latency floors.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import contextvars
from typing import Deque, Dict, List, Optional

import numpy as np

from .observability import COUNT_BUCKETS, metrics, span, traced

__all__ = ["SHED_POLICIES", "AsyncRecommendationFrontend", "OverloadedError"]

#: Load-shedding policies for a full pending queue: ``"reject"`` raises
#: :class:`OverloadedError` immediately, ``"block"`` awaits capacity.
SHED_POLICIES = ("reject", "block")


class OverloadedError(RuntimeError):
    """Raised (``shed="reject"``) when the pending queue is at capacity."""


class _Batch:
    """Waiters pooled into one worker call.

    ``key`` is the ``(k, exclude_train)`` signature of a recommend group, or
    ``None`` for pooled ingest events.  ``rows`` counts what the call will
    process (waiters for a read, events for an ingest).  ``context`` is the
    first waiter's, so the batch's spans land in that waiter's trace.
    """

    __slots__ = ("key", "users", "items", "futures", "rows", "context")

    def __init__(self, key) -> None:
        self.key = key
        self.users: list = []
        self.items: List[np.ndarray] = []
        self.futures: List[asyncio.Future] = []
        self.rows = 0
        self.context = contextvars.copy_context()


class AsyncRecommendationFrontend:
    """Coalesce concurrent async requests into shared scoring batches.

    Parameters
    ----------
    service:
        The :class:`RecommendationService` (or
        :class:`OnlineRecommendationService`, required for :meth:`ingest`)
        that actually serves the batches.  The frontend never bypasses it,
        so every row comes from a direct ``service.top_k`` call.
    max_batch_size:
        Most rows one worker call takes: recommend waiters of one signature,
        or pooled ingest events.  Waiters beyond it queue as the next batch.
    max_pending:
        Bound on requests queued or in flight (recommend calls + ingest
        calls); the backpressure limit.
    shed:
        What to do at capacity — one of :data:`SHED_POLICIES`.

    Must be used from a running event loop; all methods are coroutine-safe
    but the frontend itself is bound to the first loop that touches it.
    """

    def __init__(self, service, *, max_batch_size: int = 64,
                 max_pending: int = 1024, shed: str = "reject") -> None:
        self.service = service
        self.max_batch_size = int(max_batch_size)
        self.max_pending = int(max_pending)
        self.shed = shed
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be a positive integer")
        if self.max_pending < 1:
            raise ValueError("max_pending must be a positive integer")
        if shed not in SHED_POLICIES:
            raise ValueError(f"unknown shed policy {shed!r}; "
                             f"options: {SHED_POLICIES}")
        # One worker thread: batches never block the event loop, and running
        # them serially means ingest mutations and scoring reads of the
        # shared service state can never race each other.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-frontend")
        # Back-reference for the unified surface: service.stats()["frontend"]
        # reports this frontend's counters (last frontend attached wins).
        try:
            service._attached_frontend = self
        except AttributeError:
            pass
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        # Batches waiting for the worker, oldest first; the ones still taking
        # waiters, by key; and the task serving the head batch (None when the
        # worker is idle and nothing is queued).
        self._ready: Deque[_Batch] = collections.deque()
        self._open: Dict[object, _Batch] = {}
        self._active: Optional[asyncio.Task] = None
        self._capacity = asyncio.Condition()
        self._pending = 0
        # Stats.
        self.requests = 0
        self.cache_hits = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_occupancy = 0
        self.ingest_calls = 0
        self.ingest_batches = 0
        self.ingest_events = 0
        self.shed_count = 0
        self.queue_high_water = 0

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _get_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError("frontend is bound to another event loop")
        return loop

    async def _admit(self) -> None:
        """Take one pending-queue slot, shedding load at capacity."""
        if self._closed:
            raise RuntimeError("frontend is closed")
        if self._pending >= self.max_pending:
            if self.shed == "reject":
                self.shed_count += 1
                metrics().inc("frontend.shed")
                raise OverloadedError(
                    f"pending queue at capacity ({self.max_pending}); "
                    f"retry later")
            async with self._capacity:
                await self._capacity.wait_for(
                    lambda: self._pending < self.max_pending)
        self._pending += 1
        self.queue_high_water = max(self.queue_high_water, self._pending)

    async def _release(self, count: int) -> None:
        async with self._capacity:
            self._pending -= count
            self._capacity.notify_all()

    def _enqueue(self, key, rows: int, users,
                 items: Optional[np.ndarray] = None) -> asyncio.Future:
        """Add one waiter to ``key``'s open batch; return its future.

        A key with no open batch opens one at the back of the queue.  A
        batch closes once it holds ``max_batch_size`` rows, so later waiters
        start the next one.
        """
        batch = self._open.get(key)
        if batch is None:
            batch = self._open[key] = _Batch(key)
            self._ready.append(batch)
        future = self._loop.create_future()
        batch.futures.append(future)
        batch.users.append(users)
        if items is not None:
            batch.items.append(items)
        batch.rows += rows
        if batch.rows >= self.max_batch_size:
            del self._open[key]
        self._dispatch()
        return future

    def _dispatch(self) -> None:
        """Start serving the head batch unless a batch is already in flight.

        The serving task takes the batch off the queue at its first step, on
        the next loop iteration, so whatever is submitted in the current tick
        still joins it.  It runs in the batch's first waiter's context.
        """
        if self._active is None and self._ready:
            self._active = self._ready[0].context.run(
                self._loop.create_task, self._serve_head())

    async def _serve_head(self) -> None:
        """Serve the head batch on the worker, then start the next one."""
        batch = self._ready.popleft()
        if self._open.get(batch.key) is batch:
            del self._open[batch.key]
        try:
            if batch.key is None:
                await self._run_ingest(batch)
            else:
                await self._run_recommend(batch)
        finally:
            self._active = None
            self._dispatch()

    @property
    def pending(self) -> int:
        """Requests currently queued or in flight."""
        return self._pending

    # ------------------------------------------------------------------ #
    # Recommend path
    # ------------------------------------------------------------------ #
    async def recommend(self, user: int, k: int = 10,
                        exclude_train: bool = True) -> List[int]:
        """One user's top-``k``, served through a coalesced scoring batch.

        Equal to ``service.top_k([user], k, exclude_train)[0]`` up to the
        near-tie caveat in the module docstring.  LRU-cached results resolve
        immediately without taking a queue slot; a miss goes to the worker
        as soon as it is free.
        """
        self._get_loop()
        user, k = int(user), int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        registry = metrics()
        with traced("frontend.recommend"):
            self.requests += 1
            registry.inc("frontend.requests")
            cached = self.service.cache_lookup(user, k, exclude_train)
            if cached is not None:
                self.cache_hits += 1
                registry.inc("frontend.cache_hits")
                return cached
            await self._admit()
            with span("frontend.assemble"):
                future = self._enqueue((k, bool(exclude_train)), 1, user)
            with span("frontend.await_batch"):
                return await future

    def _score_batch(self, users: np.ndarray, k: int,
                     exclude_train: bool) -> List[List[int]]:
        """Worker-thread body: one shared top-K batch + LRU population."""
        table = self.service.top_k(users, k, exclude_train=exclude_train)
        rows = [[int(item) for item in row] for row in table]
        for user, row in zip(users, rows):
            self.service.cache_store(int(user), k, exclude_train, row)
        return rows

    async def _run_recommend(self, batch: _Batch) -> None:
        k, exclude_train = batch.key
        users = np.asarray(batch.users, dtype=np.int64)
        registry = metrics()
        registry.observe("frontend.batch_occupancy", len(batch.futures),
                         buckets=COUNT_BUCKETS)
        try:
            # copy_context(): run_in_executor does not propagate contextvars,
            # so hand the worker thread an explicit copy — the scoring body
            # lands inside this flush's TraceContext.
            context = contextvars.copy_context()
            with span("frontend.flush"), registry.timer("frontend.flush_s"):
                rows = await self._get_loop().run_in_executor(
                    self._executor, context.run, self._score_batch, users, k,
                    exclude_train)
        except Exception as error:
            for future in batch.futures:
                if not future.done():
                    future.set_exception(error)
        else:
            for future, row in zip(batch.futures, rows):
                if not future.done():
                    future.set_result(row)
        finally:
            self.batches += 1
            self.batched_requests += len(batch.futures)
            registry.inc("frontend.batches")
            registry.inc("frontend.batched_requests", len(batch.futures))
            self.max_occupancy = max(self.max_occupancy, len(batch.futures))
            await self._release(len(batch.futures))

    # ------------------------------------------------------------------ #
    # Ingest path
    # ------------------------------------------------------------------ #
    async def ingest(self, users, items) -> dict:
        """Fold new interaction events in, through a coalesced ingest batch.

        Events from concurrent producers pool into ONE
        ``service.ingest(users, items)`` call per batch, so the overlay merge
        and the targeted LRU invalidation amortise across producers.  Every
        waiter receives the coalesced batch's stats dict (plus
        ``coalesced_calls``, the number of producers pooled into it).
        """
        self._get_loop()
        if not hasattr(self.service, "ingest"):
            raise TypeError("service does not support ingest; wrap an "
                            "OnlineRecommendationService for online traffic")
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be aligned 1-d arrays")
        self.ingest_calls += 1
        metrics().inc("frontend.ingest_calls")
        await self._admit()
        return await self._enqueue(None, int(users.size), users, items)

    async def _run_ingest(self, batch: _Batch) -> None:
        users = np.concatenate(batch.users)
        items = np.concatenate(batch.items)
        registry = metrics()
        try:
            context = contextvars.copy_context()
            with span("frontend.ingest_flush"), \
                    registry.timer("frontend.ingest_flush_s"):
                stats = await self._get_loop().run_in_executor(
                    self._executor, context.run, self.service.ingest, users,
                    items)
        except Exception as error:
            for future in batch.futures:
                if not future.done():
                    future.set_exception(error)
        else:
            for future in batch.futures:
                if not future.done():
                    future.set_result(
                        dict(stats, coalesced_calls=len(batch.futures)))
        finally:
            self.ingest_batches += 1
            self.ingest_events += batch.rows
            registry.inc("frontend.ingest_batches")
            registry.inc("frontend.ingest_events", batch.rows)
            await self._release(len(batch.futures))

    # ------------------------------------------------------------------ #
    # Lifecycle / stats
    # ------------------------------------------------------------------ #
    async def flush(self) -> None:
        """Wait until every queued batch has been served.

        Queued work is always already draining, so this only waits for the
        queue to run dry.
        """
        while self._active is not None:
            await asyncio.wait((self._active,))

    async def close(self) -> None:
        """Drain pending batches, then release the worker thread.

        Idempotent.  Requests submitted after ``close()`` raise; requests
        already pending are served.
        """
        self._closed = True
        await self.flush()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncRecommendationFrontend":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def stats(self) -> dict:
        """Point-in-time coalescing / backpressure counters."""
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "mean_occupancy": (self.batched_requests / self.batches
                               if self.batches else 0.0),
            "max_occupancy": self.max_occupancy,
            "ingest_calls": self.ingest_calls,
            "ingest_batches": self.ingest_batches,
            "ingest_events": self.ingest_events,
            "shed": self.shed_count,
            "pending": self._pending,
            "queue_high_water": self.queue_high_water,
            "max_batch_size": self.max_batch_size,
            "max_pending": self.max_pending,
            "shed_policy": self.shed,
        }

    def __repr__(self) -> str:
        return (f"AsyncRecommendationFrontend(service={self.service!r}, "
                f"max_batch_size={self.max_batch_size}, "
                f"max_pending={self.max_pending}, shed={self.shed!r}, "
                f"batches={self.batches}, shed_count={self.shed_count})")
