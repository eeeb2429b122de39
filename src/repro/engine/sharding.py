"""Item-partitioned sharded serving: fan out top-K across shards, merge exactly.

Past ~10M items a single frozen :class:`InferenceIndex` matrix no longer fits
one worker's memory or latency budget.  This module partitions the frozen
item-embedding matrix **item-wise** into ``S`` shards:

* :func:`partition_items` — the partition policies.  ``contiguous`` slices the
  id space into equal-width blocks (the last blocks may be short or empty when
  the catalogue does not divide evenly); ``strided`` deals item ``i`` to shard
  ``i % S`` (balanced shard sizes under any catalogue ordering).
* :class:`ItemShard` — one shard: its global item ids, its slice of the item
  embeddings (exactly what a remote worker would hold — a zero-copy view for
  contiguous blocks, a gathered copy for strided ones), and a
  **local** :class:`UserItemIndex` exclusion built by slicing the parent
  exclusion's flat (user, item) pairs down to this shard's items and remapping
  them to local columns — so per-shard train masking stays one flat-index
  assignment, never a per-user Python loop.
* :class:`ShardedInferenceIndex` — the serving facade.  ``top_k`` fans one
  shard request out across shards through an executor, concatenates the
  per-shard ``(global ids, scores)`` candidate lists (``S·k`` candidates per
  user) and re-ranks them exactly — mathematically identical to unsharded
  top-K because every item's score appears in exactly one shard's candidate
  list whenever it could enter the global top-K.
* :func:`run_shard_request` — the one shard-side code path.  Every executor
  runs every request through it; they differ only in where it runs and in
  what resolves a shard id to its state.  :class:`SerialExecutor` (the
  dependency-free default and the reference for tests) and
  :class:`ThreadedExecutor` (shard scoring is one BLAS matmul per shard,
  which releases the GIL) resolve the live shards of the index they are
  bound to; :class:`ProcessExecutor` workers and the remote shard servers
  resolve the mmap'd snapshot file.

Correctness of the merge: each shard returns its local top ``min(k, n_s)``
(an empty candidate list for empty shards).  Any item in the global top-k is
in its own shard's top-k (the shard ranking is a sub-ranking of the global
one), so re-ranking the union of per-shard candidates reproduces the
unsharded result bit-for-bit.  Both sides rank under the same total order —
score descending, then global item id ascending (a shard's local ids ascend
with its global ids under either policy) — so ties, the ``-inf`` masked tail
included, come out identically.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .index import InferenceIndex, UserItemIndex, top_k_indices
from .observability import metrics, span


__all__ = [
    "partition_items",
    "ItemShard",
    "ShardedInferenceIndex",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "run_shard_request",
]

PARTITION_POLICIES = ("contiguous", "strided")


def partition_items(num_items: int, num_shards: int,
                    policy: str = "contiguous") -> List[np.ndarray]:
    """Partition ``[0, num_items)`` into ``num_shards`` sorted id arrays.

    ``contiguous`` uses equal ceil-width blocks, so a non-divisible catalogue
    leaves the trailing shards short or empty (e.g. 5 items over 7 shards
    yields five singleton shards and two empty ones); ``strided`` assigns item
    ``i`` to shard ``i % num_shards``.  Every item lands in exactly one shard.
    """
    num_items = int(num_items)
    num_shards = int(num_shards)
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    ids = np.arange(num_items, dtype=np.int64)
    if policy == "contiguous":
        width = -(-num_items // num_shards) if num_items else 0
        return [ids[s * width:(s + 1) * width] for s in range(num_shards)]
    if policy == "strided":
        return [ids[s::num_shards] for s in range(num_shards)]
    raise ValueError(f"unknown partition policy {policy!r}; "
                     f"options: {PARTITION_POLICIES}")


def _locate_extra_pairs(shard: "ItemShard", extra) -> Optional[tuple]:
    """This shard's (batch row, local column) slice of shipped extra pairs.

    ``extra`` is the router's ``(batch row, global item)`` exclusion pairs
    the snapshot file does not hold (see
    :meth:`ShardedInferenceIndex._payload_state`), or ``None``.
    """
    if extra is None:
        return None
    rows, items = extra
    owned, local = shard.locate(items)
    if not owned.any():
        return None
    return rows[owned], local[owned]


def run_shard_request(resolver, shard_id: int, kind: str, *request):
    """Run one shard request on one shard: the only shard-side code path.

    Every executor ends here.  Serial and threaded fan-out pass the live
    :class:`ShardedInferenceIndex` as ``resolver``; process workers and
    :class:`~repro.engine.remote.ShardServer` pass the mmap'd snapshot
    (:class:`~repro.engine.snapshot._SnapshotShards`).  A resolver answers
    ``shard_state(shard_id) -> (ItemShard, user matrix)`` and
    ``shard_block(shard_id, mode) -> QuantizedItemBlock``.

    Requests (``kind`` first)::

        ("top_k", users, k, exclude_train, user_block, extra_pairs)
        ("candidates", users, num_candidates, mode, exclude_train,
         user_block, extra_pairs)

    ``user_block`` replaces the resolver's user rows and ``extra_pairs``
    adds ``(batch row, global item)`` exclusions: router state the snapshot
    file does not hold, ``None`` otherwise.  ``top_k`` returns the shard's
    best-first ``(global ids, scores)``; ``candidates`` returns ``(global
    ids, exact scores, thresholds)`` from one two-stage pass.
    """
    start = time.perf_counter()
    if kind == "top_k":
        users, k, exclude_train, user_block, extra = request
    elif kind == "candidates":
        users, num_candidates, mode, exclude_train, user_block, extra = request
    else:
        raise ValueError(f"unknown shard request kind {kind!r}")
    shard, user_embeddings = resolver.shard_state(shard_id)
    if user_block is None:
        user_block = np.asarray(user_embeddings[users])
    extra = _locate_extra_pairs(shard, extra)
    if kind == "top_k":
        result = shard.local_top_k(user_block, users, k, exclude_train,
                                   extra_pairs=extra)
    else:
        from .candidates import _two_stage_block

        user_norms = np.linalg.norm(
            user_block.astype(np.float64, copy=False), axis=1)

        def rescore(candidates: np.ndarray) -> np.ndarray:
            return np.einsum("bd,bmd->bm", user_block,
                             shard.item_embeddings[candidates])

        local_ids, scores, thresholds = _two_stage_block(
            user_block, users, user_norms, num_candidates,
            resolver.shard_block(shard_id, mode), shard.exclusion,
            exclude_train, rescore, extra_pairs=extra)
        result = shard.item_ids[local_ids], scores, thresholds
    metrics().observe(f"sharding.shard.{shard_id}.task_s",
                      time.perf_counter() - start)
    return result


class _ExecutorBase:
    """Shared executor plumbing: binding, fan-out, pool lifetime.

    An executor is bound once, when a :class:`ShardedInferenceIndex` is
    built over it (:meth:`bind`).  After that it exposes :meth:`fan_out`
    and :meth:`close`.  The in-process executors bind the index itself as
    their shard resolver; binding again (``refresh()`` re-sharding fresh
    embeddings) moves them to the new index.  Every executor is
    context-manageable (``with ThreadedExecutor() as ex:``) and
    idempotently closeable, so pools are released deterministically
    instead of lingering until interpreter shutdown.
    """

    #: Whether shard requests run against the on-disk snapshot (process and
    #: remote workers) rather than this process's live shards.  Router state
    #: that diverged from the file must then ship with every request.
    serves_snapshot = False

    num_shards = 0
    _resolver = None
    _pool = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def bind(self, index: "ShardedInferenceIndex") -> None:
        """Serve ``index``'s live shards."""
        self._resolver = index
        self.num_shards = index.num_shards

    def _new_pool(self):
        """A worker pool for multi-shard fan-out, or ``None`` to run inline."""
        return None

    def fan_out(self, kind: str, *request) -> list:
        """Run ``request`` on every shard; results come back in shard order.

        One shard always runs inline: it gains nothing from a pool.
        """
        if self._pool is None and self.num_shards > 1:
            self._pool = self._new_pool()
        if self._pool is None:
            return [run_shard_request(self._resolver, shard_id, kind, *request)
                    for shard_id in range(self.num_shards)]
        futures = [self._pool.submit(run_shard_request, self._resolver,
                                     shard_id, kind, *request)
                   for shard_id in range(self.num_shards)]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Release the worker pool, if one was started (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    @staticmethod
    def _validate_max_workers(max_workers: Optional[int]) -> Optional[int]:
        if max_workers is None:
            return None
        max_workers = int(max_workers)
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        return max_workers


class SerialExecutor(_ExecutorBase):
    """Run shard requests inline, in shard order (the dependency-free default)."""

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadedExecutor(_ExecutorBase):
    """Fan shard requests out over a lazily created thread pool.

    Shard scoring is NumPy/BLAS-bound and releases the GIL, so threads give
    genuine parallelism here without pickling embeddings across processes.
    Results always come back in shard order, like the serial executor, so
    the merge is executor-independent.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = self._validate_max_workers(max_workers)

    def _new_pool(self):
        return ThreadPoolExecutor(max_workers=self.max_workers)

    def __repr__(self) -> str:
        return f"ThreadedExecutor(max_workers={self.max_workers})"


class ProcessExecutor(_ExecutorBase):
    """Fan shard requests out to worker *processes* over an mmap'd snapshot.

    Threads share the in-process matrices; processes cannot — so instead of
    pickling embedding slices per request, every worker opens the shard's
    sections of one on-disk snapshot (:mod:`repro.engine.snapshot`) by
    offset, zero-copy, and caches them for the life of the process.  A
    request ships only the snapshot resolver ``(path, shard geometry)``,
    the shard id and the user batch, and returns one small per-shard
    candidate array, so steady-state IPC is O(batch x k) — never
    O(items x dim).

    The executor is bound to one snapshot + shard geometry at construction;
    binding it to an index of another geometry raises.  The router keeps
    the certified merge (and hence bit-exactness).  Router state that has
    diverged from the frozen file — a rebound (grown) user matrix,
    exclusion pairs ingested into an online overlay — rides along with
    each request (:meth:`ShardedInferenceIndex._payload_state`), so online
    serving over a process executor stays bit-identical to the in-process
    path.

    The same snapshot file is the worker's entire world, which is exactly
    the multi-host shape: replace the process pool with a socket to a shard
    server holding the same file and nothing else changes.
    """

    serves_snapshot = True

    def __init__(self, snapshot_path, num_shards: int, *,
                 policy: str = "contiguous",
                 max_workers: Optional[int] = None) -> None:
        from .snapshot import _SnapshotShards

        self.snapshot_path = str(snapshot_path)
        self.num_shards = int(num_shards)
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if policy not in PARTITION_POLICIES:
            raise ValueError(f"unknown partition policy {policy!r}; "
                             f"options: {PARTITION_POLICIES}")
        self.policy = policy
        self.max_workers = self._validate_max_workers(max_workers)
        self._resolver = _SnapshotShards(self.snapshot_path, self.num_shards,
                                         policy)

    def bind(self, index: "ShardedInferenceIndex") -> None:
        """Reject binding to an index whose geometry the workers don't hold."""
        if index.num_shards != self.num_shards or index.policy != self.policy:
            raise ValueError(
                f"ProcessExecutor is bound to {self.num_shards} "
                f"{self.policy!r} shards of {self.snapshot_path}; cannot "
                f"serve {index.num_shards} {index.policy!r} shards")

    def _new_pool(self):
        workers = self.max_workers or min(self.num_shards, os.cpu_count() or 1)
        return ProcessPoolExecutor(max_workers=workers)

    def __repr__(self) -> str:
        return (f"ProcessExecutor(snapshot={self.snapshot_path!r}, "
                f"shards={self.num_shards}, policy={self.policy!r}, "
                f"max_workers={self.max_workers})")


class ItemShard:
    """One item partition: embedding slice + local exclusion index.

    Parameters
    ----------
    shard_id:
        Position of this shard in the fan-out (used only for repr/debugging).
    item_ids:
        Sorted global item ids owned by this shard (may be empty).
    item_embeddings:
        The ``(len(item_ids), dim)`` slice of the frozen item matrix — in a
        real deployment the only piece of the catalogue resident on the
        shard's worker (in-process it may alias the frozen matrix as a view;
        :class:`InferenceIndex` already froze it read-only-by-convention).
    exclusion:
        Parent ``user -> train items`` index over the *global* id space; the
        shard slices it down to its own items at construction time.
    """

    def __init__(self, shard_id: int, item_ids: np.ndarray,
                 item_embeddings: np.ndarray,
                 exclusion: Optional[UserItemIndex] = None, *,
                 local_exclusion: Optional[UserItemIndex] = None) -> None:
        self.shard_id = int(shard_id)
        self.item_ids = np.asarray(item_ids, dtype=np.int64)
        self.item_embeddings = item_embeddings
        if self.item_embeddings.shape[0] != self.item_ids.size:
            raise ValueError("embedding slice rows must match item_ids")
        if local_exclusion is not None:
            # Pre-sliced by the caller (ShardedInferenceIndex builds all S
            # local indexes in one pass over the parent CSR).
            self.exclusion = local_exclusion
        else:
            self.exclusion = (self._slice_exclusion(exclusion)
                              if exclusion is not None else None)
        self._item_norms: Optional[np.ndarray] = None

    @property
    def item_norms(self) -> np.ndarray:
        """Cached L2 norms of this shard's embedding slice (float64, frozen).

        Mirrors :attr:`InferenceIndex.item_norms` for the sharded world: the
        two-stage candidate pipeline's norm-cap bound is computed per shard
        against these.
        """
        if self._item_norms is None:
            norms = np.linalg.norm(
                self.item_embeddings.astype(np.float64, copy=False), axis=1)
            norms.setflags(write=False)
            self._item_norms = norms
        return self._item_norms

    @property
    def num_local_items(self) -> int:
        return int(self.item_ids.size)

    # ------------------------------------------------------------------ #
    def _slice_exclusion(self, parent: UserItemIndex) -> UserItemIndex:
        """Project the parent exclusion onto this shard's local columns.

        One vectorised pass over the parent CSR arrays: expand the user of
        every (user, item) pair from the indptr, keep the pairs whose item
        this shard owns (a ``searchsorted`` against the sorted ``item_ids``),
        and remap kept items to local column ids — the searchsorted positions
        themselves.  No per-user or per-pair Python loops.
        """
        sel, local = self.locate(parent.indices)
        users = np.repeat(np.arange(parent.num_users, dtype=np.int64),
                          np.diff(parent.indptr))
        return UserItemIndex(parent.num_users, max(self.num_local_items, 1),
                             users[sel], local[sel])

    def locate(self, items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(owned mask, local column ids) of global ``items`` in this shard.

        Positions where the mask is ``False`` carry meaningless local ids;
        callers must filter by the mask.  Policy-agnostic: works for any
        sorted partition, not just the two built-in policies.
        """
        items = np.asarray(items, dtype=np.int64)
        if self.num_local_items == 0:
            return (np.zeros(items.shape, dtype=bool),
                    np.zeros(items.shape, dtype=np.int64))
        local = np.searchsorted(self.item_ids, items)
        clipped = np.minimum(local, self.num_local_items - 1)
        return self.item_ids[clipped] == items, clipped

    # ------------------------------------------------------------------ #
    def local_scores(self, user_block: np.ndarray, users: np.ndarray,
                     exclude_train: bool,
                     extra_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                     ) -> np.ndarray:
        """Dense ``(len(users), num_local_items)`` block, train items masked.

        ``extra_pairs`` is an optional ``(batch row, local column)`` pair set
        masked on top of the shard's own exclusion — how a snapshot-served
        shard applies exclusion pairs the frozen file does not hold (an
        online overlay's ingested delta).
        """
        scores = user_block @ self.item_embeddings.T
        if exclude_train:
            if self.exclusion is not None:
                self.exclusion.mask(scores, users)
            if extra_pairs is not None:
                rows, cols = extra_pairs
                scores[rows, cols] = -np.inf
        return scores

    def local_top_k(self, user_block: np.ndarray, users: np.ndarray, k: int,
                    exclude_train: bool,
                    extra_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-user top ``min(k, num_local_items)`` candidates of this shard.

        Returns ``(global item ids, scores)``, both ``(len(users), k_local)``
        and ordered best-first.  An empty shard contributes zero-width
        candidate lists instead of padding — the merge must never see
        fabricated items.
        """
        if self.num_local_items == 0:
            return (np.empty((users.size, 0), dtype=np.int64),
                    np.empty((users.size, 0), dtype=user_block.dtype))
        scores = self.local_scores(user_block, users, exclude_train,
                                   extra_pairs=extra_pairs)
        local = top_k_indices(scores, min(int(k), self.num_local_items))
        return (self.item_ids[local],
                np.take_along_axis(scores, local, axis=1))

    def score_pairs_local(self, user_block: np.ndarray,
                          local_items: np.ndarray) -> np.ndarray:
        """Scores of aligned (user row, local item) pairs."""
        return np.einsum("ij,ij->i", user_block,
                         self.item_embeddings[local_items])

    def __repr__(self) -> str:
        return (f"ItemShard(id={self.shard_id}, items={self.num_local_items}, "
                f"span=[{self.item_ids[0] if self.num_local_items else '-'}"
                f"..{self.item_ids[-1] if self.num_local_items else '-'}])")


class ShardedInferenceIndex:
    """Item-sharded drop-in for :class:`InferenceIndex` top-K serving.

    ``top_k`` / ``score_pairs`` / ``recommend`` match the unsharded index
    bit-for-bit, ties included: candidates are generated per shard and
    re-ranked exactly, never approximated.  Only factorised snapshots can be
    sharded — the whole point is splitting the item-embedding matrix.
    """

    def __init__(self, num_users: int, num_items: int,
                 user_embeddings: np.ndarray, shards: Sequence[ItemShard], *,
                 exclusion: Optional[UserItemIndex] = None,
                 executor=None, policy: str = "contiguous") -> None:
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.user_embeddings = user_embeddings
        self.dtype = user_embeddings.dtype
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("need at least one shard")
        covered = sum(shard.num_local_items for shard in self.shards)
        if covered != self.num_items:
            raise ValueError(
                f"shards cover {covered} items, catalogue has {self.num_items}")
        self.exclusion = exclusion
        self.policy = policy
        #: Per-shard quantised blocks by candidate mode, registered by
        #: :class:`~repro.engine.candidates.ShardedCandidateIndex` so the
        #: in-process executors can resolve them.
        self.blocks: dict = {}
        # Bind-time references to the state snapshot workers rebuild from
        # the file.  Later router-side swaps (a rebound user matrix for grown
        # users, an online exclusion overlay) are detected against these and
        # shipped alongside every snapshot-served request.
        self._baseline_users = self.user_embeddings
        self._baseline_exclusion = self.exclusion
        self.executor = executor if executor is not None else SerialExecutor()
        self.executor.bind(self)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_index(cls, index: InferenceIndex, num_shards: int, *,
                   policy: str = "contiguous",
                   executor=None) -> "ShardedInferenceIndex":
        """Partition a frozen :class:`InferenceIndex` item-wise.

        Raises ``ValueError`` for non-factorised indexes (``score_users``
        fallbacks have no item matrix to split).
        """
        if not index.is_factorized:
            raise ValueError(
                "sharding requires a factorised InferenceIndex "
                "(a model exposing user_item_embeddings); "
                "scorer-fallback snapshots cannot be partitioned item-wise")
        parts = partition_items(index.num_items, num_shards, policy)
        locals_ = cls._slice_exclusions(index.exclusion, parts, policy)
        shards = []
        for shard_id, part in enumerate(parts):
            if policy == "contiguous":
                # Contiguous blocks are basic slices — zero-copy views of the
                # frozen matrix, so sharding in-process does not double the
                # item-embedding memory (strided partitions must gather).
                start = int(part[0]) if part.size else 0
                block = index.item_embeddings[start:start + part.size]
            else:
                block = index.item_embeddings[part]
            shards.append(ItemShard(shard_id, part, block,
                                    local_exclusion=locals_[shard_id]))
        return cls(index.num_users, index.num_items, index.user_embeddings,
                   shards, exclusion=index.exclusion, executor=executor,
                   policy=policy)

    @staticmethod
    def _slice_exclusions(parent: Optional[UserItemIndex],
                          parts: List[np.ndarray],
                          policy: str) -> List[Optional[UserItemIndex]]:
        """All S local exclusion indexes in ONE pass over the parent CSR.

        Each train pair's owning shard and local column come from closed-form
        arithmetic on the item id (``// width`` for contiguous, ``% S`` for
        strided), so the whole split is O(nnz) plus one stable sort by shard
        — refresh()-time cost stays flat in the shard count, unlike slicing
        the parent once per shard.
        """
        num_shards = len(parts)
        if parent is None:
            return [None] * num_shards
        users = np.repeat(np.arange(parent.num_users, dtype=np.int64),
                          np.diff(parent.indptr))
        items = parent.indices
        if policy == "contiguous":
            width = parts[0].size if num_shards else 0  # ceil-width blocks
            owner = items // width if width else np.zeros_like(items)
            local = items - owner * width
        else:  # strided
            owner = items % num_shards
            local = items // num_shards
        order = np.argsort(owner, kind="stable")
        offsets = np.zeros(num_shards + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=num_shards), out=offsets[1:])
        result = []
        for shard_id, part in enumerate(parts):
            chunk = order[offsets[shard_id]:offsets[shard_id + 1]]
            result.append(UserItemIndex(parent.num_users, max(part.size, 1),
                                        users[chunk], local[chunk]))
        return result

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def is_factorized(self) -> bool:
        return True

    def rebind_users(self, user_embeddings: np.ndarray) -> None:
        """Swap in a replacement (typically grown) user-embedding matrix.

        Mirrors :meth:`InferenceIndex.rebind_users` for the sharded facade:
        shards only hold item slices, so growing the user side never touches
        them.  The matrix may only grow.
        """
        user_embeddings = np.asarray(user_embeddings)
        if user_embeddings.ndim != 2 or \
                user_embeddings.shape[1] != self.user_embeddings.shape[1]:
            raise ValueError("replacement user matrix must keep the embedding dim")
        if user_embeddings.shape[0] < self.num_users:
            raise ValueError("replacement user matrix cannot drop existing users")
        self.user_embeddings = user_embeddings
        self.num_users = int(user_embeddings.shape[0])

    # ------------------------------------------------------------------ #
    def shard_state(self, shard_id: int) -> tuple:
        """Shard resolver for in-process executors: the live shard and user
        matrix (see :func:`run_shard_request`)."""
        return self.shards[shard_id], self.user_embeddings

    def shard_block(self, shard_id: int, mode: str):
        """Shard resolver: the shard's registered quantised block of ``mode``."""
        return self.blocks[mode][shard_id]

    def _payload_state(self, users: np.ndarray, exclude_train: bool) -> tuple:
        """Router-vs-snapshot divergence to ship with every shard request.

        In-process executors resolve the live shards, so nothing diverges
        and this returns ``(None, None)``.  Snapshot-served executors rebuild
        their shard state from the frozen file, so anything the router
        changed since binding must ride along or the workers silently serve
        stale state: a rebound user matrix (online serving appends fallback
        rows for grown user ids the snapshot has no row for — workers would
        raise ``IndexError``) and exclusion pairs the file does not hold (an
        overlay's ingested delta, or a compacted base CSR superseding the
        stored one — workers would recommend freshly consumed items back).

        Returns ``(user_block, extra_pairs)``: the gathered user rows when
        the router's matrix is no longer the bind-time one (else ``None``),
        and the ``(batch row, global item)`` exclusion pairs missing from
        the snapshot (else ``None``).
        """
        if not self.executor.serves_snapshot:
            return None, None
        user_block = None
        if self.user_embeddings is not self._baseline_users:
            user_block = np.ascontiguousarray(self.user_embeddings[users])
        extra = self._extra_exclusion_pairs(users) if exclude_train else None
        return user_block, extra

    def _extra_exclusion_pairs(self, users: np.ndarray) -> Optional[tuple]:
        """The batch's exclusion pairs absent from the bind-time exclusion."""
        current = self.exclusion
        baseline = self._baseline_exclusion
        if current is None or current is baseline:
            return None
        base = getattr(current, "base", None)
        delta = getattr(current, "delta", None)
        if base is baseline and delta is not None:
            # An online overlay sitting directly on the snapshot's CSR: the
            # delta IS the divergence (it is kept disjoint from the base).
            if not delta.nnz:
                return None
            rows, items = delta.pairs_for(users)
        else:
            # General case — e.g. a compacted overlay whose merged base
            # superseded the snapshot CSR: diff the users' accumulated pairs
            # against the bind-time baseline.
            rows, items = current.flat_pairs(users)
            if baseline is not None and rows.size:
                pair_users = users[rows]
                novel = np.ones(rows.size, dtype=bool)
                known = pair_users < baseline.num_users
                if known.any():
                    novel[known] = ~baseline.contains(pair_users[known],
                                                      items[known])
                rows, items = rows[novel], items[novel]
        if not rows.size:
            return None
        return rows, items

    def top_k(self, users: Sequence[int], k: int,
              exclude_train: bool = True) -> np.ndarray:
        """Top-``k`` item ids per user, best first — fan out, merge exactly.

        Each shard contributes ``min(k, items_in_shard)`` candidates,
        so the merged pool always holds at least ``min(k, num_items)``
        genuine items and the result width matches the unsharded path.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValueError("users must be a 1-d array of user ids")
        k = int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        if exclude_train and self.exclusion is None:
            raise ValueError("no exclusion index attached to this "
                             "ShardedInferenceIndex")
        registry = metrics()
        with span("sharding.fan_out"), registry.timer("sharding.fan_out_s"):
            user_block, extra = self._payload_state(users, exclude_train)
            results = self.executor.fan_out("top_k", users, k,
                                            bool(exclude_train), user_block,
                                            extra)
        with span("sharding.merge"), registry.timer("sharding.merge_s"):
            candidate_ids = np.concatenate([ids for ids, _ in results], axis=1)
            candidate_scores = np.concatenate(
                [scores for _, scores in results], axis=1)
            return self._merge(candidate_ids, candidate_scores,
                               min(k, self.num_items))

    @staticmethod
    def _merge(candidate_ids: np.ndarray, candidate_scores: np.ndarray,
               width: int) -> np.ndarray:
        """Exact re-rank of the pooled S·k candidates per user.

        One ``lexsort`` per batch: primary key descending score, secondary
        key ascending global item id (the last key of ``lexsort`` is the
        primary one).  The pooled candidates are a superset of the true
        top-``width`` set, so taking the first ``width`` columns reproduces
        the unsharded ranking.
        """
        order = np.lexsort((candidate_ids, -candidate_scores), axis=-1)
        return np.take_along_axis(candidate_ids, order[:, :width], axis=1)

    def score_pairs(self, users: Sequence[int],
                    items: Sequence[int]) -> np.ndarray:
        """Scores of aligned (user, item) pairs, routed to each item's shard."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape:
            raise ValueError("users and items must be aligned 1-d arrays")
        out = np.empty(users.shape, dtype=self.dtype)
        found = np.zeros(users.shape, dtype=bool)
        for shard in self.shards:
            sel, local = shard.locate(items)
            if sel.any():
                out[sel] = shard.score_pairs_local(
                    self.user_embeddings[users[sel]], local[sel])
                found |= sel
        if not found.all():
            raise IndexError("item id out of range for this sharded index")
        return out

    def recommend(self, user: int, k: int = 10,
                  exclude_train: bool = True) -> List[int]:
        """Single-user convenience wrapper over :meth:`top_k`."""
        return [int(item) for item in self.top_k([int(user)], k,
                                                 exclude_train=exclude_train)[0]]

    def close(self) -> None:
        """Release the executor's worker pool (if it holds one)."""
        self.executor.close()

    def __repr__(self) -> str:
        sizes = [shard.num_local_items for shard in self.shards]
        return (f"ShardedInferenceIndex(users={self.num_users}, "
                f"items={self.num_items}, shards={self.num_shards}, "
                f"policy={self.policy!r}, sizes={sizes}, "
                f"executor={self.executor!r})")
