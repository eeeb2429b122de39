"""Frozen inference-time indexes.

Two structures live here:

* :class:`UserItemIndex` — an immutable CSR ``user -> sorted unique items``
  index over a set of interactions.  Its batch operations are fully
  vectorised: masking a score batch is ONE flat-index assignment (no
  per-user Python loop), membership tests materialise a boolean matrix in
  one scatter, counts are an indptr difference.
* :class:`InferenceIndex` — a model snapshot for serving: the final user and
  item embedding matrices frozen after training (falling back to the
  model's ``score_users`` for non-factorised models such as MultiVAE),
  paired with the train-interaction exclusion index so "score all items and
  drop what the user already consumed" is two dense ops per batch.

Both are deliberately NumPy-only (no autograd imports) so they can be built
from any scorer, including test doubles.
"""

from __future__ import annotations

import math
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "UserItemIndex",
    "InferenceIndex",
    "train_exclusion_index",
    "top_k_indices",
]

_SPLIT_INDEX_CACHE = "_engine_user_item_indexes"

#: Largest ``num_users * num_items`` for which :meth:`UserItemIndex.contains`
#: materialises a dense boolean lookup table (64M cells ≈ 64 MB).  Above it,
#: membership falls back to a binary search over the sorted flat keys.
_DENSE_MEMBERSHIP_CELLS = 1 << 26

#: Largest batch the reusable :meth:`InferenceIndex.top_k` score buffer will
#: grow to (matches the RecommendationService default ``batch_size``).  Bigger
#: one-shot batches allocate a fresh matrix instead, so a single
#: score-everyone call never pins ``num_users x num_items`` floats for the
#: life of the index.
_SCORE_BUFFER_MAX_ROWS = 1024

#: Fewest items per block for which :func:`top_k_indices` prefilters by
#: block maxima; see :func:`_block_size`.
_MIN_BLOCK = 4

#: Fewest scores per batch for which :func:`top_k_indices` prefilters.  The
#: prefilter makes about twice the NumPy calls of the full-row path, which
#: it repays only on enough scores.  ``benchmarks/bench_top_k.py`` (both
#: paths forced on, k = 20, a 2-core x86 VM) read the full-row path faster
#: at 1,000-8,000 scores (1-8 rows of 1,000 items) and at 20,000 (one row
#: of 20,000, by about 4%), the two level at 64,000 (64 rows of 1,000),
#: and the prefilter ahead from 60,000 (3 rows of 20,000) on.
_MIN_PREFILTER_CELLS = 1 << 15


def _expand_slices(counts: np.ndarray,
                   starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(batch rows, gather positions) covering per-row slices of a flat array.

    Row ``b`` owns ``counts[b]`` consecutive elements beginning at
    ``starts[b]``; subtracting the running offset of earlier slices turns a
    global arange into per-slice aranges.  This is the vectorised gather
    behind both the CSR ``flat_pairs`` and the delta-overlay ``pairs_for`` —
    no per-row Python loops.
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts
    positions = (np.arange(total, dtype=np.int64)
                 - np.repeat(offsets, counts)
                 + np.repeat(starts, counts))
    return rows, positions


class _FlatPairOps:
    """Batch operations derived purely from ``flat_pairs`` / ``num_items``.

    Shared by the frozen :class:`UserItemIndex` and the online delta overlay
    (:class:`repro.engine.online.OnlineUserItemIndex`) so the masking /
    scatter semantics can never diverge between them.
    """

    def mask(self, scores: np.ndarray, users: np.ndarray,
             value: float = -np.inf) -> np.ndarray:
        """Assign ``value`` at every indexed (user, item) position, in place."""
        rows, cols = self.flat_pairs(users)
        if rows.size:
            scores[rows, cols] = value
        return scores

    def dense_rows(self, users: np.ndarray, dtype=bool) -> np.ndarray:
        """Dense ``(len(users), num_items)`` indicator rows in ``dtype``.

        One flat-index scatter per batch — the single implementation behind
        :meth:`membership`, the training pipeline's user-row batches and the
        autoencoder models' input rows.
        """
        users = np.asarray(users, dtype=np.int64)
        matrix = np.zeros((users.size, self.num_items), dtype=dtype)
        rows, cols = self.flat_pairs(users)
        if rows.size:
            matrix[rows, cols] = 1
        return matrix

    def membership(self, users: np.ndarray) -> np.ndarray:
        """Boolean ``(len(users), num_items)`` matrix of indexed pairs."""
        return self.dense_rows(users, dtype=bool)


def _top_k_full(scores: np.ndarray, k: int) -> np.ndarray:
    """Exact top-``k`` of whole rows: the items above the k-th, then its ties.

    With ``t`` the k-th best score of a row, the row's top ``k`` are every
    item scoring above ``t`` and, to fill the rest, the lowest ids scoring
    ``t``.  Exactly ``k`` candidates per row are kept, so a row of ties (a
    constant model, or a mostly ``-inf`` row with fewer than ``k`` servable
    items) never indexes or sorts more than ``k`` items; one stable
    row-wise argsort of their negated scores ranks them, NaN last.  ``np.partition`` sorts
    NaN above every number, so in a row holding NaN its ``t`` can overshoot,
    leaving fewer than ``k`` items at or above it; such rows find ``t``
    again with NaN read as ``-inf``, and a row with fewer than ``k`` numbers
    keeps every number and fills the rest with its lowest-id NaNs.
    """
    num_rows, width = scores.shape
    threshold = np.partition(scores, width - k,
                             axis=1)[:, width - k, None].copy()
    keep = scores >= threshold
    count = keep.sum(axis=1)
    if (count != k).any():
        keep = _keep_exactly_k(scores, k, threshold, keep, count)
    rows, ids = np.divmod(np.flatnonzero(keep), width)
    order = np.argsort(-scores[rows, ids].reshape(num_rows, k), axis=1,
                       kind="stable")
    return ids[order + np.arange(0, ids.size, k)[:, None]]


def _keep_exactly_k(scores: np.ndarray, k: int, threshold: np.ndarray,
                    keep: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Fix the rows of ``keep`` (``scores >= threshold``) not holding ``k``.

    Rows holding fewer hold NaN (see :func:`_top_k_full`); rows holding
    more tie at the threshold and keep only their lowest-id ties.
    """
    width = scores.shape[1]
    few = few_nans = None
    nan_rows = np.flatnonzero(count < k)
    if nan_rows.size:
        numbers = scores[nan_rows]
        nans = np.isnan(numbers)
        np.copyto(numbers, -np.inf, where=nans)
        numbers.partition(width - k, axis=1)
        threshold[nan_rows] = numbers[:, width - k, None]
        del numbers
        np.greater_equal(scores, threshold, out=keep)
        short = nans.sum(axis=1) > width - k
        few, few_nans = nan_rows[short], nans[short]
        keep[few] = True
        count = keep.sum(axis=1)
    crowded = np.flatnonzero(count > k)
    if crowded.size:
        ties = scores == threshold
        if few is not None:
            ties[few] = few_nans
        ties = ties[crowded]
        order = ties.astype(np.int32)
        np.cumsum(order, axis=1, out=order)
        room = k - count[crowded] + order[:, -1]
        keep[crowded] &= ~ties | (order <= room[:, None])
    return keep


def _block_size(width: int, k: int) -> int:
    """Items per block of the top-k prefilter, or 0 for the full-row path.

    The prefilter reads every score once, partitions the block maxima and
    gathers ``k`` blocks, so about ``sqrt(width / k)`` items per block keeps
    both of the later steps small.  With fewer than ``_MIN_BLOCK`` items per
    block (narrow rows or large ``k``) the gathered blocks are most of the
    row, and the full-row path is cheaper.
    """
    size = math.isqrt(width // k)
    return size if size >= _MIN_BLOCK else 0


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` scores of each row, best first.

    Each row is ranked under one total order: score descending, then item id
    ascending.  NaN ranks below every number, ``-inf`` included, and NaNs tie
    with each other.  The result is exact and does not depend on the batch a
    row arrives in, so an item-sharded merge under the same order reproduces
    it.  ``k`` is capped at the row width.  A row with fewer than ``k``
    servable items (the others masked to ``-inf``) therefore ends with
    excluded items in ascending id order.

    Rows are split into blocks of B items, block ``j`` holding items ``j``,
    ``j + width // B``, ... (the tail past a whole number of blocks is never
    pruned).  With ``t`` the k-th largest block maximum, at least ``k`` items
    score ``>= t``, so the top ``k`` and every item tied with the k-th lie in
    the blocks whose maximum reaches ``t`` (NaN-only blocks have no such
    item).  Rows where exactly ``k`` blocks reach ``t`` gather those blocks
    and the tail, in ascending id order, and rank them with the full-row
    path.  Rows where more do (ties, mostly ``-inf`` rows), rows too narrow
    for blocks and batches of fewer than ``_MIN_PREFILTER_CELLS`` scores
    take the full-row path over the whole row.  Either way a batch costs a
    fixed number of NumPy calls, no negated copy of ``scores`` is made, and
    index arrays hold ``k`` items per row.
    """
    num_rows, width = scores.shape
    k = min(int(k), width)
    if k <= 0 or num_rows == 0:
        return np.empty((num_rows, max(k, 0)), dtype=np.int64)
    block = (_block_size(width, k)
             if num_rows * width >= _MIN_PREFILTER_CELLS else 0)
    if not block:
        return _top_k_full(scores, k)
    num_blocks = width // block
    split = num_blocks * block
    body = scores[:, :split].reshape(num_rows, block, num_blocks)
    # fmax skips NaN, so a block maximum bounds every number in its block.
    maxima = np.fmax.reduce(body, axis=1)
    threshold = np.partition(maxima, num_blocks - k,
                             axis=1)[:, num_blocks - k, None]
    keep = maxima >= threshold
    pruned = keep.sum(axis=1) == k
    rows = np.flatnonzero(pruned)
    if rows.size == 0:
        return _top_k_full(scores, k)
    if rows.size < num_rows:
        top = np.empty((num_rows, k), dtype=np.int64)
        full = np.flatnonzero(~pruned)
        top[full] = _top_k_full(scores[full], k)
        keep = keep[rows]
    blocks = (np.flatnonzero(keep) % num_blocks).reshape(rows.size, k)
    # Column i*k + j holds item i*num_blocks + blocks[j]: ids ascend along
    # each row, and the tail's ids follow.
    kept = body[rows[:, None], :, blocks].transpose(0, 2, 1).reshape(
        rows.size, block * k)
    if split < width:
        kept = np.concatenate([kept, scores[rows, split:]], axis=1)
    cols = _top_k_full(kept, k)
    offset, slot = np.divmod(cols, k)
    ids = offset * num_blocks + blocks.ravel()[
        slot + np.arange(0, blocks.size, k)[:, None]]
    if split < width:
        ids = np.where(offset < block, ids, cols + (split - block * k))
    if rows.size == num_rows:
        return ids
    top[rows] = ids
    return top


class UserItemIndex(_FlatPairOps):
    """Immutable CSR index of ``user -> sorted unique item ids``.

    Parameters
    ----------
    num_users, num_items:
        Size of the id spaces (rows of the index / width of score batches).
    users, items:
        Parallel interaction arrays; duplicates collapse to one entry, which
        matches the historical per-user ``set`` semantics.
    """

    def __init__(self, num_users: int, num_items: int,
                 users: Sequence[int], items: Sequence[int]) -> None:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape:
            raise ValueError("users and items must have the same length")
        self.num_users = int(num_users)
        self.num_items = int(num_items)

        if users.size:
            pairs = users * np.int64(self.num_items) + items
            pairs = np.unique(pairs)
            users = pairs // self.num_items
            items = pairs % self.num_items
        self.indptr = np.zeros(self.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=self.num_users), out=self.indptr[1:])
        self.indices = items
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._flat_keys: Optional[np.ndarray] = None
        self._membership_table: Optional[np.ndarray] = None
        self._membership_table_built = False

    # ------------------------------------------------------------------ #
    @classmethod
    def from_flat_keys(cls, num_users: int, num_items: int,
                       keys: np.ndarray) -> "UserItemIndex":
        """Build from already-sorted unique flat keys, skipping the sort.

        ``keys`` must be sorted ascending with no duplicates (the invariant
        :attr:`flat_keys` documents).  Because the regular constructor derives
        its CSR from exactly that sorted unique key array, this fast path is
        bit-identical to a from-scratch build on the same pair set — it is how
        :meth:`repro.engine.online.OnlineUserItemIndex.compact` folds a delta
        into the base in one linear merge instead of an O(nnz log nnz) resort.
        """
        keys = np.asarray(keys, dtype=np.int64)
        index = cls.__new__(cls)
        index.num_users = int(num_users)
        index.num_items = int(num_items)
        users = keys // index.num_items
        index.indptr = np.zeros(index.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=index.num_users),
                  out=index.indptr[1:])
        index.indices = keys % index.num_items
        index.indptr.setflags(write=False)
        index.indices.setflags(write=False)
        frozen_keys = keys.copy()
        frozen_keys.setflags(write=False)
        index._flat_keys = frozen_keys
        index._membership_table = None
        index._membership_table_built = False
        return index

    @classmethod
    def from_csr_arrays(cls, num_users: int, num_items: int,
                        indptr: np.ndarray,
                        indices: np.ndarray) -> "UserItemIndex":
        """Adopt prebuilt CSR arrays without copying or re-sorting.

        The arrays must satisfy the construction invariants (monotone
        ``indptr`` of length ``num_users + 1`` starting at 0 and ending at
        ``len(indices)``; each user's items sorted ascending and unique) —
        exactly what :func:`repro.engine.snapshot.load_snapshot` reads back
        from disk, so a memory-mapped exclusion index is zero-copy: the
        ``np.memmap`` sections *are* the index arrays.  Invariants are
        validated cheaply (shape/monotonicity, not per-row sortedness — that
        is the writer's contract, covered by the round-trip tests).
        """
        indptr = np.asanyarray(indptr)
        indices = np.asanyarray(indices)
        index = cls.__new__(cls)
        index.num_users = int(num_users)
        index.num_items = int(num_items)
        if indptr.ndim != 1 or indptr.size != index.num_users + 1:
            raise ValueError("indptr must have num_users + 1 entries")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be monotonically non-decreasing")
        index.indptr = indptr
        index.indices = indices
        for array in (index.indptr, index.indices):
            if array.flags.writeable:
                array.setflags(write=False)
        index._flat_keys = None
        index._membership_table = None
        index._membership_table_built = False
        return index

    @classmethod
    def from_split(cls, split, which: str = "train") -> "UserItemIndex":
        """Index over one partition of a :class:`repro.data.DataSplit`.

        Indexes are cached on the split object — every consumer (evaluator,
        recommendation service, ``Recommender.recommend``) shares one build.
        """
        cache = getattr(split, _SPLIT_INDEX_CACHE, None)
        if cache is None:
            cache = {}
            setattr(split, _SPLIT_INDEX_CACHE, cache)
        if which not in cache:
            if which == "train":
                users, items = split.train_users, split.train_items
            elif which in ("valid", "validation"):
                users, items = split.valid_users, split.valid_items
            elif which == "test":
                users, items = split.test_users, split.test_items
            else:
                raise ValueError("which must be one of 'train', 'valid', 'test'")
            cache[which] = cls(split.num_users, split.num_items, users, items)
        return cache[which]

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def counts(self, users: Optional[np.ndarray] = None) -> np.ndarray:
        """Number of indexed items per user (for all users when omitted)."""
        if users is None:
            return np.diff(self.indptr)
        users = np.asarray(users, dtype=np.int64)
        return self.indptr[users + 1] - self.indptr[users]

    def users_with_items(self) -> np.ndarray:
        """Sorted ids of users that have at least one indexed item."""
        return np.nonzero(np.diff(self.indptr) > 0)[0].astype(np.int64)

    def items_for(self, user: int) -> np.ndarray:
        """Sorted item ids of one user (zero-copy view)."""
        return self.indices[self.indptr[user]:self.indptr[user + 1]]

    def flat_pairs(self, users: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(batch_row, item) coordinate arrays covering the users' items.

        This is the flat-index gather that replaces the per-user masking
        loop: for a batch of users it returns, without Python-level
        iteration, the row index into the batch and the item column of every
        indexed (user, item) pair.
        """
        users = np.asarray(users, dtype=np.int64)
        rows, positions = _expand_slices(self.counts(users),
                                         self.indptr[users])
        return rows, self.indices[positions]

    @property
    def flat_keys(self) -> np.ndarray:
        """Sorted flat keys ``user * num_items + item`` of every indexed pair.

        Because construction sorts unique pairs, concatenating the per-user
        CSR rows in user order reproduces that globally sorted key array —
        so membership of arbitrary (user, item) pairs is one ``searchsorted``
        over this cache instead of a per-element ``set`` lookup.  Built
        lazily and frozen, like ``indptr``/``indices``.
        """
        if self._flat_keys is None:
            counts = np.diff(self.indptr)
            keys = (np.repeat(np.arange(self.num_users, dtype=np.int64), counts)
                    * np.int64(self.num_items) + self.indices)
            keys.setflags(write=False)
            self._flat_keys = keys
        return self._flat_keys

    def _dense_membership(self) -> Optional[np.ndarray]:
        """Dense boolean lookup table, or ``None`` when the id space is too big.

        For small catalogues an O(1) table lookup beats the O(log nnz)
        binary search by an order of magnitude on whole candidate matrices;
        the table is built lazily from the flat keys and frozen.
        """
        if not self._membership_table_built:
            self._membership_table_built = True
            if self.num_users * self.num_items <= _DENSE_MEMBERSHIP_CELLS:
                table = np.zeros(self.num_users * self.num_items, dtype=bool)
                table[self.flat_keys] = True
                table = table.reshape(self.num_users, self.num_items)
                table.setflags(write=False)
                self._membership_table = table
        return self._membership_table

    def contains(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorised membership test of (user, item) pairs.

        ``users`` and ``items`` broadcast against each other (e.g. a
        ``(B, 1)`` user column against a ``(B, n)`` candidate matrix); the
        result has the broadcast shape.  Small id spaces answer from a dense
        boolean table; large ones binary-search the sorted flat keys.  Either
        way the training pipeline rejects whole candidate matrices of
        negatives in one shot.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        # Validate before broadcasting (cheapest on the raw operands) so both
        # branches reject out-of-range ids identically — the flat-key
        # arithmetic would otherwise wrap into a neighbouring user's row.
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise IndexError("user id out of range for this index")
        if items.size and (items.min() < 0 or items.max() >= self.num_items):
            raise IndexError("item id out of range for this index")
        table = self._dense_membership()
        if table is not None:
            return table[users, items]
        users, items = np.broadcast_arrays(users, items)
        keys = users * np.int64(self.num_items) + items
        flat = self.flat_keys
        if flat.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        positions = np.minimum(np.searchsorted(flat, keys), flat.size - 1)
        return flat[positions] == keys

    def __repr__(self) -> str:
        return (f"UserItemIndex(users={self.num_users}, items={self.num_items}, "
                f"nnz={self.nnz})")


def train_exclusion_index(split) -> UserItemIndex:
    """The cached ``user -> train items`` exclusion index of a split."""
    return UserItemIndex.from_split(split, "train")


class InferenceIndex:
    """Model snapshot for serving: frozen embeddings + exclusion index.

    Factorised models (anything exposing ``user_item_embeddings``) freeze
    their final user/item matrices, so a score batch is one dense matmul in
    the configured dtype.  Other models fall back to their ``score_users``
    callable.  Training positives are excluded through the shared
    :class:`UserItemIndex` in one vectorised assignment per batch.
    """

    def __init__(self, num_users: int, num_items: int, *,
                 user_embeddings: Optional[np.ndarray] = None,
                 item_embeddings: Optional[np.ndarray] = None,
                 scorer=None,
                 exclusion: Optional[UserItemIndex] = None,
                 dtype=np.float64, copy: bool = True) -> None:
        if (user_embeddings is None) != (item_embeddings is None):
            raise ValueError("user and item embeddings must be provided together")
        if user_embeddings is None and scorer is None:
            raise ValueError("need either embedding matrices or a scorer")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.dtype = np.dtype(dtype)
        self._scorer = scorer
        if user_embeddings is not None:
            if copy:
                self.user_embeddings = np.array(user_embeddings,
                                                dtype=self.dtype, copy=True)
                self.item_embeddings = np.array(item_embeddings,
                                                dtype=self.dtype, copy=True)
            else:
                # Zero-copy adoption: the caller owns already-frozen matrices
                # (typically read-only ``np.memmap`` sections of a serving
                # snapshot) whose dtype must already match — copying here
                # would defeat the point of mapping them.
                self.user_embeddings = np.asanyarray(user_embeddings)
                self.item_embeddings = np.asanyarray(item_embeddings)
                if (self.user_embeddings.dtype != self.dtype
                        or self.item_embeddings.dtype != self.dtype):
                    raise ValueError(
                        "copy=False adopts the embedding arrays as-is; their "
                        "dtype must match the requested serving dtype")
            if self.user_embeddings.shape[0] != self.num_users:
                raise ValueError("user embedding rows must equal num_users")
            if self.item_embeddings.shape[0] != self.num_items:
                raise ValueError("item embedding rows must equal num_items")
        else:
            self.user_embeddings = None
            self.item_embeddings = None
        self.exclusion = exclusion
        self._item_norms: Optional[np.ndarray] = None
        self._score_buffer: Optional[np.ndarray] = None
        self._score_buffer_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(cls, model, split=None, *, dtype=np.float64,
                   exclusion: Optional[UserItemIndex] = None) -> "InferenceIndex":
        """Freeze a model (any ``score_users`` scorer) for serving.

        ``split`` defaults to ``model.split``; when neither is available the
        exclusion index is omitted and only unmasked scoring works.
        """
        split = split if split is not None else getattr(model, "split", None)
        if exclusion is None and split is not None:
            exclusion = train_exclusion_index(split)
        if split is not None:
            num_users, num_items = split.num_users, split.num_items
        else:
            num_users, num_items = model.num_users, model.num_items
        if hasattr(model, "user_item_embeddings"):
            user_matrix, item_matrix = model.user_item_embeddings()
            return cls(num_users, num_items,
                       user_embeddings=user_matrix, item_embeddings=item_matrix,
                       exclusion=exclusion, dtype=dtype)
        return cls(num_users, num_items, scorer=model.score_users,
                   exclusion=exclusion, dtype=dtype)

    @property
    def is_factorized(self) -> bool:
        return self.user_embeddings is not None

    def rebind_users(self, user_embeddings: np.ndarray) -> None:
        """Swap in a replacement (typically grown) user-embedding matrix.

        The online-serving path appends fallback rows for previously unseen
        users; everything else about the snapshot (item matrix, norms, score
        buffer — which is keyed by batch rows, not ``num_users``) stays valid.
        The matrix may only grow: shrinking would dangle cached results.
        """
        if not self.is_factorized:
            raise ValueError("rebind_users requires a factorised InferenceIndex")
        user_embeddings = np.ascontiguousarray(user_embeddings, dtype=self.dtype)
        if user_embeddings.ndim != 2 or \
                user_embeddings.shape[1] != self.user_embeddings.shape[1]:
            raise ValueError("replacement user matrix must keep the embedding dim")
        if user_embeddings.shape[0] < self.num_users:
            raise ValueError("replacement user matrix cannot drop existing users")
        self.user_embeddings = user_embeddings
        self.num_users = int(user_embeddings.shape[0])

    @property
    def item_norms(self) -> np.ndarray:
        """Cached per-item L2 embedding norms (float64, frozen).

        The Cauchy–Schwarz bound behind two-stage candidate serving
        (``u · e_i <= ||u|| · ||e_i||``) prunes against these, so they are
        computed once per snapshot and shared by every quantised block.
        """
        if not self.is_factorized:
            raise ValueError("item norms require a factorised InferenceIndex")
        if self._item_norms is None:
            norms = np.linalg.norm(
                self.item_embeddings.astype(np.float64, copy=False), axis=1)
            norms.setflags(write=False)
            self._item_norms = norms
        return self._item_norms

    # ------------------------------------------------------------------ #
    def scores(self, users: Sequence[int], mask_train: bool = False) -> np.ndarray:
        """Dense ``(len(users), num_items)`` score batch in ``self.dtype``."""
        users = np.asarray(users, dtype=np.int64)
        if self.is_factorized:
            scores = self.user_embeddings[users] @ self.item_embeddings.T
            owned = True
        else:
            raw = np.asarray(self._scorer(users))
            scores = raw.astype(self.dtype, copy=False)
            owned = scores is not raw
        if scores.shape != (users.size, self.num_items):
            raise ValueError(
                "scorer must return an array of shape (num_users_in_batch, num_items); "
                f"got {scores.shape}"
            )
        if mask_train:
            if self.exclusion is None:
                raise ValueError("no exclusion index attached to this InferenceIndex")
            if not owned:
                # Never scribble -inf into an array the scorer may still own.
                scores = scores.copy()
            self.exclusion.mask(scores, users)
        return scores

    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> np.ndarray:
        """Scores of aligned (user, item) pairs without scoring all items."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape:
            raise ValueError("users and items must be aligned 1-d arrays")
        if self.is_factorized:
            return np.einsum("ij,ij->i", self.user_embeddings[users],
                             self.item_embeddings[items])
        return self.scores(users)[np.arange(users.size), items]

    def rescore(self, users: Sequence[int], item_lists: np.ndarray) -> np.ndarray:
        """Exact scores of per-user candidate lists, in the index dtype.

        ``item_lists`` is ``(len(users), m)`` — row ``b`` holds the candidate
        item ids of ``users[b]`` — and the result has the same shape.  This is
        the stage-2 rescoring hook of the two-stage candidate pipeline
        (:mod:`repro.engine.candidates`): only ``m`` items per user are scored
        instead of the whole catalogue.
        """
        users = np.asarray(users, dtype=np.int64)
        item_lists = np.asarray(item_lists, dtype=np.int64)
        if item_lists.ndim != 2 or item_lists.shape[0] != users.size:
            raise ValueError("item_lists must have shape (len(users), m)")
        if self.is_factorized:
            return np.einsum("bd,bmd->bm", self.user_embeddings[users],
                             self.item_embeddings[item_lists])
        return np.take_along_axis(self.scores(users), item_lists, axis=1)

    def _buffered_scores(self, users: np.ndarray) -> np.ndarray:
        """Score batch written into a reusable per-index buffer.

        ``top_k`` is the hot serving path; recomputing it per request used to
        allocate a fresh ``batch × num_items`` matrix every time.  The buffer
        grows to the largest batch seen — capped at
        ``_SCORE_BUFFER_MAX_ROWS`` so one-shot score-everyone calls fall back
        to a fresh allocation instead of pinning a catalogue-sized matrix —
        and is reused (``np.matmul(..., out=)`` overwrites every cell, so
        stale masking never leaks between calls).  The returned view is only
        valid until the next ``top_k`` call and is never handed out by the
        public ``scores`` API.  Callers must hold ``_score_buffer_lock``.
        """
        rows = users.size
        if self._score_buffer is None or self._score_buffer.shape[0] < rows:
            self._score_buffer = np.empty((rows, self.num_items), dtype=self.dtype)
        block = self._score_buffer[:rows]
        np.matmul(self.user_embeddings[users], self.item_embeddings.T, out=block)
        return block

    def top_k(self, users: Sequence[int], k: int,
              exclude_train: bool = True) -> np.ndarray:
        """Top-``k`` item ids per user, best first, shape ``(len(users), k)``.

        Thread-safe: the reusable score buffer is claimed with a
        non-blocking lock, and a contending (or oversized) call simply pays
        the historical fresh allocation instead of waiting or racing.
        """
        users = np.asarray(users, dtype=np.int64)
        if not self.is_factorized:
            scores = self.scores(users, mask_train=exclude_train)
            return top_k_indices(scores, k)
        buffered = (users.size <= _SCORE_BUFFER_MAX_ROWS
                    and self._score_buffer_lock.acquire(blocking=False))
        try:
            if buffered:
                scores = self._buffered_scores(users)
            else:
                scores = self.user_embeddings[users] @ self.item_embeddings.T
            if exclude_train:
                if self.exclusion is None:
                    raise ValueError(
                        "no exclusion index attached to this InferenceIndex")
                self.exclusion.mask(scores, users)
            return top_k_indices(scores, k)
        finally:
            if buffered:
                self._score_buffer_lock.release()

    def recommend(self, user: int, k: int = 10,
                  exclude_train: bool = True) -> List[int]:
        """Single-user convenience wrapper over :meth:`top_k`."""
        return [int(item) for item in self.top_k([int(user)], k,
                                                 exclude_train=exclude_train)[0]]

    def __repr__(self) -> str:
        mode = "factorized" if self.is_factorized else "scorer"
        return (f"InferenceIndex(users={self.num_users}, items={self.num_items}, "
                f"mode={mode}, dtype={self.dtype.name})")
