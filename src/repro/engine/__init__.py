"""Serving-grade inference engine.

This subpackage concentrates everything the library needs to turn trained
models into a fast, reusable serving path:

* :class:`PropagationEngine` — owns the sparse propagation operator (CSR
  matrix, cached transpose, configurable dtype, reusable output buffers) and
  exposes both a plain-array product and a differentiable ``apply`` that
  plugs into the autograd graph.  Every GCN model's :math:`\\hat{A} X`
  product routes through it.
* :class:`UserItemIndex` — an immutable CSR ``user -> items`` index with
  fully vectorised batch operations (flat-index masking, membership
  matrices, per-user counts).  Built once per split and shared by the
  evaluator, the recommendation service and ``Recommender.recommend``.
* :class:`InferenceIndex` — freezes a model's final user/item embeddings
  after training (or falls back to its ``score_users``) together with the
  train-interaction exclusion index, so scoring + masking become a pair of
  dense matmuls and one vectorised flat-index assignment per batch.
* :class:`RecommendationService` — batched ``top_k`` / ``score_pairs`` APIs
  with an LRU result cache; the serving front-end used by the CLI, the
  examples and ``Recommender.recommend``.
* :class:`ShardedInferenceIndex` — item-partitioned serving for catalogues
  that outgrow one worker: the frozen item matrix splits into S shards
  (contiguous or strided), each shard ranks its own top-k candidates with a
  locally sliced exclusion index, and an exact merge re-ranks the pooled
  S·k candidates — identical results to the unsharded path.  Fan-out runs
  through an executor seam (:class:`SerialExecutor` default,
  :class:`ThreadedExecutor` for GIL-releasing BLAS parallelism); the
  service exposes it via ``num_shards=…``/``parallel=True``.

* :class:`CandidateIndex` / :class:`ShardedCandidateIndex` — two-stage
  top-K for catalogues where even one full-precision pass per request is too
  expensive: stage 1 scores a quantised item matrix (symmetric per-item int8
  codes + scale vectors, or a float32 cast) and keeps ``candidate_factor*k``
  candidates under a Cauchy–Schwarz upper bound with cached item norms;
  stage 2 rescores only the candidates in the index dtype and re-ranks
  exactly.  Every batch carries a :class:`Certificate`: when the best pruned
  upper bound falls below the k-th rescored score the result provably equals
  exhaustive search.  The exact path stays the default and the oracle; the
  service exposes the pipeline via ``candidate_mode=…``/``candidate_factor=…``
  and composes it with sharding (per-shard quantised blocks, certified
  merge).

* :class:`OnlineRecommendationService` / :class:`OnlineUserItemIndex` /
  :class:`InteractionDelta` — incremental index updates for online serving:
  new (user, item) interactions (including previously unseen users, which
  get a fallback embedding row) are folded into an append-only sorted
  flat-key delta overlaid on the frozen CSR exclusion, so ``ingest`` is one
  linear merge, serving stays one vectorised pass (base lookup OR delta
  binary search), only the touched users lose their cache entries, and
  ``compact()`` merges the delta into a fresh CSR bit-identical to a
  from-scratch rebuild — overlay serving ≡ rebuild serving, before and
  after compaction, across sharded and candidate backends.

* :class:`AsyncRecommendationFrontend` — the asyncio micro-batching
  front-end for socket-shaped traffic: arbitrarily many concurrent
  ``await recommend(user, k)`` / ``await ingest(users, items)`` calls
  coalesce into shared scoring (and ingest) batches per request signature.
  Dispatch is work-conserving: a miss goes to the worker as soon as it is
  free, and what arrives while a batch runs goes out as the next batches,
  at most ``max_batch_size`` rows each.  Batches run on a worker thread (the
  event loop never blocks), a bounded pending queue applies backpressure
  with explicit load shedding (:class:`OverloadedError` or
  block-until-capacity), and every row comes from ``service.top_k``.  A
  coalesced row equals a direct one-user call except at near-ties: NumPy
  scores one user with gemv and a batch with gemm, which differ by up to
  ~1e-13, so two candidates that close may swap.

* :class:`ServingSnapshot` / :func:`save_snapshot` / :func:`load_snapshot` —
  zero-copy persistence of the whole frozen serving state (embeddings, item
  norms, exclusion CSR, quantised candidate blocks) in ONE versioned,
  crc32-checksummed, atomically swapped file.  ``load_snapshot(mmap=True)``
  rebuilds the serving stack as read-only memory-mapped views — O(open)
  worker cold start, pages faulted lazily, bit-identical serving — and
  :class:`ProcessExecutor` plugs into the executor seam to fan shards out
  to worker processes that re-open the snapshot by offset (tasks ship
  ``(snapshot path, shard id, user batch)``, never matrices).  Corrupted or
  version-skewed files are rejected with :class:`SnapshotFormatError`.

* :class:`ShardServer` / :class:`RemoteExecutor` — the multi-host tier: one
  TCP server process per shard, each holding its mmap'd slice of a
  byte-identical snapshot copy, speaking a length-prefixed binary protocol
  (no pickle on the wire).  :class:`RemoteExecutor` plugs the same payload
  seam over sockets — protocol-version + snapshot-fingerprint handshake,
  per-request timeouts, bounded retries with backoff — and the router keeps
  the certified exact merge, so remote serving is bit-identical to the
  serial oracle and *fails closed*: any unreachable/stale/faulty shard
  raises :class:`RemoteShardError`, never a partial merge.

* :class:`FaultPlan` / :class:`WriteAheadLog` — the availability and
  durability layer on top of the exactness substrate.
  :class:`RemoteExecutor` accepts one *replica set* per shard and fails
  over transport faults to healthy siblings (per-replica circuit breakers,
  half-open probes, capped full-jitter retry backoff) — failover never
  changes results, only which replica computes them — while
  ``OnlineRecommendationService(wal_path=…)`` appends every acknowledged
  ingest batch to a checksummed write-ahead log before returning, so a
  post-crash construction over the same log serves bit-identically to the
  uncrashed service (torn tail records are detected and dropped; snapshot
  republish rotates the log to keep it bounded).  A seeded
  :class:`FaultPlan` schedules deterministic faults (resets, delays,
  garbled frames, handshake rejections, server crashes, torn writes) into
  all three components, so every claimed fault path is a reproducible test.

* :class:`MetricsRegistry` / :class:`Tracer` — end-to-end serving
  telemetry.  A process-local registry of named counters, gauges and
  fixed-bucket latency histograms (exact p50/p90/p99 over a bounded raw
  sample window) instruments every hot path — frontend batching, cache
  probes, candidate stage-1/stage-2, shard fan-out/merge, remote
  retries/failovers/breaker transitions, WAL appends/fsyncs/replays,
  online ingest/compact/publish — and ``service.stats()`` folds every
  stats surface (cache, certificates, health, online, WAL, frontend,
  faults, metrics) into ONE nested dict with stable keys.  Request-scoped
  tracing (:func:`traced` / :func:`span`, contextvar-propagated through
  asyncio and worker threads, trace ids riding the remote wire protocol so
  shard-server spans stitch into the router's trace) records the N slowest
  request trees in a bounded ring.  Instrumentation never changes results:
  serving is bit-identical with telemetry on, off, or swapped for
  :class:`NullMetricsRegistry`, and the overhead is gated ≤5% in CI.

Dtype policy: training always runs in ``float64`` (the autograd substrate is
exact-gradient float64); inference defaults to ``float64`` for bit-parity
with evaluation but can be dropped to ``float32`` for serving workloads via
the ``dtype`` arguments on :class:`PropagationEngine`, :class:`InferenceIndex`
and :class:`RecommendationService` — and to quantised int8 candidate blocks
via ``candidate_mode="int8"``.
"""

from .propagation import PropagationEngine
from .index import InferenceIndex, UserItemIndex, train_exclusion_index
from .candidates import (
    CANDIDATE_MODES,
    CandidateIndex,
    Certificate,
    QuantizedItemBlock,
    ShardedCandidateIndex,
    quantize_item_matrix,
)
from .service import RecommendationService
from .frontend import (
    SHED_POLICIES,
    AsyncRecommendationFrontend,
    OverloadedError,
)
from .online import (
    NEW_USER_POLICIES,
    InteractionDelta,
    OnlineRecommendationService,
    OnlineUserItemIndex,
)
from .sharding import (
    ItemShard,
    ProcessExecutor,
    SerialExecutor,
    ShardedInferenceIndex,
    ThreadedExecutor,
    partition_items,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    ServingSnapshot,
    SnapshotFormatError,
    load_snapshot,
    save_snapshot,
    snapshot_fingerprint,
    snapshot_info,
)
from .remote import (
    PROTOCOL_VERSION,
    RemoteExecutor,
    RemoteProtocolError,
    RemoteShardError,
    ReplicaRejectedError,
    ShardServer,
    parse_replica_set,
    spawn_shard_server,
)
from .faults import FaultAction, FaultPlan, FaultRule
from .observability import (
    MetricsRegistry,
    NullMetricsRegistry,
    Span,
    TraceContext,
    Tracer,
    current_trace,
    format_trace,
    get_tracer,
    metrics,
    set_metrics,
    set_tracer,
    span,
    traced,
)
from .wal import (
    FSYNC_POLICIES,
    WalError,
    WalTornWrite,
    WriteAheadLog,
    read_wal_records,
)

__all__ = [
    "PropagationEngine",
    "InferenceIndex",
    "UserItemIndex",
    "train_exclusion_index",
    "RecommendationService",
    "SHED_POLICIES",
    "AsyncRecommendationFrontend",
    "OverloadedError",
    "ShardedInferenceIndex",
    "ItemShard",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "partition_items",
    "SNAPSHOT_VERSION",
    "ServingSnapshot",
    "SnapshotFormatError",
    "save_snapshot",
    "load_snapshot",
    "snapshot_info",
    "snapshot_fingerprint",
    "PROTOCOL_VERSION",
    "ShardServer",
    "RemoteExecutor",
    "RemoteShardError",
    "RemoteProtocolError",
    "ReplicaRejectedError",
    "parse_replica_set",
    "spawn_shard_server",
    "FaultAction",
    "FaultPlan",
    "FaultRule",
    "FSYNC_POLICIES",
    "WalError",
    "WalTornWrite",
    "WriteAheadLog",
    "read_wal_records",
    "CANDIDATE_MODES",
    "CandidateIndex",
    "ShardedCandidateIndex",
    "Certificate",
    "QuantizedItemBlock",
    "quantize_item_matrix",
    "NEW_USER_POLICIES",
    "InteractionDelta",
    "OnlineRecommendationService",
    "OnlineUserItemIndex",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "current_trace",
    "format_trace",
    "get_tracer",
    "metrics",
    "set_metrics",
    "set_tracer",
    "span",
    "traced",
]
