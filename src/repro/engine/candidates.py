"""Two-stage top-K serving: quantised candidate generation + exact rescoring.

Past ~10M items the exact serving path is bound by one dense ``U × I``
full-precision matmul per batch.  This module replaces it with a two-stage
pipeline that is *certified* per query batch:

* **Stage 1 — candidate generation.**  Scores run against a quantised item
  matrix (:func:`quantize_item_matrix`): symmetric per-item **int8** codes
  with a float scale vector (8x smaller than float64), or a **float32** cast
  (2x smaller, near-exact).  Per item the block caches a *bound norm*
  ``r_i + kappa * ||d_i||`` — the L2 quantisation residual plus a rigorous
  float32 matmul rounding slack — so by Cauchy–Schwarz the exact score obeys

      u . e_i  <=  approx_i + ||u|| * bound_norm_i      (upper bound)
      u . e_i  <=  ||u|| * ||e_i||                      (norm cap)

  Candidates are the top ``candidate_factor * k`` items by the tighter of the
  two upper bounds (train-excluded items are masked to ``-inf`` first, so a
  consumed item can never be a candidate).
* **Stage 2 — exact rescoring.**  Only the candidate set is rescored in the
  index dtype (through :meth:`InferenceIndex.rescore` — ``m`` dot products
  per user instead of the whole catalogue) and re-ranked exactly, ties broken
  by ascending item id like the sharded merge.
* **Certificate.**  Each batch reports, per user, whether the
  ``(c*k+1)``-th candidate's upper bound fell *strictly below* the k-th
  rescored score — minus a rounding slack covering the stage-2 / oracle
  floating-point error in the index dtype — and whether the k-th rescored
  score clears the ``(k+1)``-th by the same margin.  When both hold, no
  pruned or runner-up item can enter the top-k under ANY faithful rounding
  of the exact scores, so the result provably equals exhaustive search
  (identical id sets; identical order wherever adjacent scores are
  separated).  When they do not, the result is approximate and callers can
  fall back to the exact oracle — which remains the default serving path.

Sharding composes: :class:`ShardedCandidateIndex` quantises each shard's
embedding block independently, runs the two-stage pipeline per shard through
the same executor seam as exact sharded serving, and merges the pooled
exactly-rescored candidates; the merged batch is certified when the k-th
merged score beats every shard's local pruning threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .index import InferenceIndex, UserItemIndex
from .observability import metrics, span
from .sharding import ShardedInferenceIndex

__all__ = [
    "CANDIDATE_MODES",
    "QuantizedItemBlock",
    "quantize_item_matrix",
    "Certificate",
    "CandidateIndex",
    "ShardedCandidateIndex",
]

CANDIDATE_MODES = ("int8", "float32")

#: Items per chunk when casting int8 codes to float32 for the stage-1 matmul
#: (bounds the transient cast buffer to ``chunk * dim * 4`` bytes).
_INT8_CAST_CHUNK = 32768


def _rounding_slack(dim: int, dtype=np.float32) -> float:
    """Conservative relative slack for a ``dtype`` dot product of width ``dim``.

    Covers the ``dtype`` cast of the user vector plus the classic forward
    error bound ``gamma_n = n*eps/(1-n*eps)`` of a length-``dim``
    accumulation, doubled for headroom (BLAS may reorder but blocked
    summation only *tightens* the bound).  Stage 1 always passes float32
    (the quantised matmul precision); the certificate additionally uses the
    index dtype's slack to defend the comparison of stage-2 rescored scores
    against an exhaustive oracle that rounds differently.
    """
    return 2.0 * (dim + 4) * float(np.finfo(np.dtype(dtype)).eps)


class QuantizedItemBlock:
    """A quantised snapshot of one item-embedding block.

    Holds the codes (``int8`` or ``float32``), the per-item dequantisation
    scales (int8 mode only), and the per-item *bound norms* and exact
    embedding norms backing the stage-1 upper bounds.  Built by
    :func:`quantize_item_matrix`; immutable once constructed.
    """

    def __init__(self, mode: str, codes: np.ndarray,
                 scales: Optional[np.ndarray], bound_norms: np.ndarray,
                 item_norms: np.ndarray) -> None:
        self.mode = mode
        self.codes = codes
        self.scales = scales
        self.bound_norms = bound_norms
        self.item_norms = item_norms
        for array in (codes, scales, bound_norms, item_norms):
            if array is not None:
                array.setflags(write=False)

    @property
    def num_items(self) -> int:
        return int(self.codes.shape[0])

    @property
    def dim(self) -> int:
        return int(self.codes.shape[1])

    @property
    def nbytes(self) -> int:
        """Total snapshot bytes: codes + scales + both norm vectors."""
        total = self.codes.nbytes + self.bound_norms.nbytes + self.item_norms.nbytes
        if self.scales is not None:
            total += self.scales.nbytes
        return total

    def approx_scores(self, user_block: np.ndarray) -> np.ndarray:
        """Approximate ``(batch, num_items)`` scores, upcast to float64.

        The matmul always runs in float32 (that is the point of stage 1);
        int8 codes are cast chunk-wise through one small reusable buffer so
        the transient never exceeds ``_INT8_CAST_CHUNK * dim`` floats.
        """
        users32 = np.ascontiguousarray(user_block, dtype=np.float32)
        if self.mode == "float32":
            return (users32 @ self.codes.T).astype(np.float64)
        out32 = np.empty((users32.shape[0], self.num_items), dtype=np.float32)
        chunk = min(self.num_items, _INT8_CAST_CHUNK)
        if chunk:
            buffer = np.empty((chunk, self.dim), dtype=np.float32)
            for start in range(0, self.num_items, chunk):
                stop = min(start + chunk, self.num_items)
                width = stop - start
                np.copyto(buffer[:width], self.codes[start:stop])
                np.matmul(users32, buffer[:width].T, out=out32[:, start:stop])
        approx = out32.astype(np.float64)
        approx *= self.scales[None, :]
        return approx

    def take(self, item_ids: np.ndarray) -> "QuantizedItemBlock":
        """Sub-block covering ``item_ids`` (row indices into this block).

        Quantisation is per-item, so the sub-block is bit-identical to
        requantising exactly those items' embeddings — which is how a
        whole-catalogue snapshot block turns into per-shard blocks without
        requantising.  A contiguous ascending id range slices zero-copy
        views (mirroring the contiguous shard policy's embedding views);
        anything else gathers copies.
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if item_ids.size == 0:
            sel = slice(0, 0)
        elif int(item_ids[-1]) - int(item_ids[0]) + 1 == item_ids.size \
                and bool((np.diff(item_ids) == 1).all()):
            sel = slice(int(item_ids[0]), int(item_ids[-1]) + 1)
        else:
            sel = item_ids
        return QuantizedItemBlock(
            self.mode, self.codes[sel],
            None if self.scales is None else self.scales[sel],
            self.bound_norms[sel], self.item_norms[sel])

    def __repr__(self) -> str:
        return (f"QuantizedItemBlock(mode={self.mode!r}, items={self.num_items}, "
                f"dim={self.dim}, nbytes={self.nbytes})")


def quantize_item_matrix(matrix: np.ndarray, mode: str = "int8", *,
                         item_norms: Optional[np.ndarray] = None) -> QuantizedItemBlock:
    """Quantise an item-embedding matrix for stage-1 candidate scoring.

    ``int8`` uses symmetric per-item quantisation: ``scale_i = max|e_i|/127``
    and ``code_i = round(e_i / scale_i)``, so dequantisation is one scale
    multiply and the per-component error is at most ``scale_i / 2``.
    ``float32`` simply casts.  Either way the block caches the per-item L2
    residual ``||e_i - dequant_i||`` inflated by the float32 rounding slack —
    everything the upper bound needs, with no full-precision copy retained.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("item matrix must be 2-d (num_items, dim)")
    exact = matrix.astype(np.float64, copy=False)
    if mode == "int8":
        scales = np.max(np.abs(exact), axis=1) / 127.0
        safe = np.where(scales > 0, scales, 1.0)
        codes = np.rint(exact / safe[:, None])
        np.clip(codes, -127, 127, out=codes)
        codes = codes.astype(np.int8)
        dequant = codes.astype(np.float64) * scales[:, None]
    elif mode == "float32":
        codes = matrix.astype(np.float32)
        scales = None
        dequant = codes.astype(np.float64)
    else:
        raise ValueError(f"unknown candidate mode {mode!r}; "
                         f"options: {CANDIDATE_MODES}")
    residual = np.linalg.norm(exact - dequant, axis=1)
    bound_norms = residual + _rounding_slack(exact.shape[1]) * np.linalg.norm(
        dequant, axis=1)
    if item_norms is None:
        item_norms = np.linalg.norm(exact, axis=1)
    item_norms = np.asarray(item_norms, dtype=np.float64)
    if item_norms.shape != (exact.shape[0],):
        raise ValueError("item_norms must be one float per item")
    return QuantizedItemBlock(mode, codes, scales, bound_norms, item_norms)


@dataclass(frozen=True)
class Certificate:
    """Per-batch exactness certificate of a two-stage top-K request.

    ``certified[b]`` is ``True`` when every pruned item's upper bound AND
    the ``(k+1)``-th rescored candidate score fell strictly below user
    ``b``'s k-th rescored score by more than the index-dtype rounding slack
    — the returned list is then provably identical to exhaustive exact
    search under any faithful rounding.  ``thresholds`` holds the tightest
    pruning bound per user (``-inf`` when nothing was pruned) and
    ``kth_scores`` the k-th exact rescored score it was compared against.
    """

    mode: str
    factor: int
    k: int
    certified: np.ndarray = field(repr=False)
    thresholds: np.ndarray = field(repr=False)
    kth_scores: np.ndarray = field(repr=False)

    @property
    def num_users(self) -> int:
        return int(self.certified.size)

    @property
    def num_certified(self) -> int:
        return int(np.count_nonzero(self.certified))

    @property
    def all_certified(self) -> bool:
        return bool(self.certified.all())

    @property
    def fraction_certified(self) -> float:
        return self.num_certified / self.num_users if self.num_users else 1.0

    def __repr__(self) -> str:
        return (f"Certificate(mode={self.mode!r}, factor={self.factor}, "
                f"k={self.k}, certified={self.num_certified}/{self.num_users})")


def _two_stage_block(user_block: np.ndarray, users: np.ndarray,
                     user_norms: np.ndarray, num_candidates: int,
                     block: QuantizedItemBlock,
                     exclusion: Optional[UserItemIndex], exclude_train: bool,
                     rescore,
                     extra_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One two-stage pass over one quantised block (the whole catalogue or
    one shard).

    Returns ``(candidate ids, exact scores, thresholds)``: the *full*
    ``min(num_candidates, block items)``-wide candidate set per user as
    local item ids (selection order — NOT ranked; the caller's final merge
    sorts by exact score), their exact rescored scores in the index dtype,
    and the per-user pruning threshold — the largest upper bound among items
    NOT kept as candidates (``-inf`` when the candidate set covered the
    block).  Returning every rescored candidate, not just the local top-k,
    is what makes the merged certificate airtight: any item absent from the
    pooled set is *pruned* and hence dominated by a threshold.
    ``user_norms`` are the (precomputed, float64) L2 norms of ``user_block``;
    ``rescore`` maps a ``(batch, m)`` local-id matrix to exact scores.
    ``extra_pairs`` is an optional ``(batch row, local item)`` pair set
    masked on top of ``exclusion`` — exclusion pairs a snapshot-served
    shard's frozen file does not hold (an online overlay's ingested delta).
    """
    batch = users.size
    num_items = block.num_items
    if num_items == 0:
        return (np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=user_block.dtype),
                np.full(batch, -np.inf))
    stage1_start = time.perf_counter()
    bounds = block.approx_scores(user_block)
    bounds += user_norms[:, None] * block.bound_norms[None, :]
    # Norm-cap pruning: ||u||*||e_i|| is also an upper bound (Cauchy–Schwarz
    # on the exact embedding) and is tighter for coarsely quantised items.
    np.minimum(bounds, user_norms[:, None] * block.item_norms[None, :],
               out=bounds)
    if exclude_train:
        if exclusion is not None:
            exclusion.mask(bounds, users)
        if extra_pairs is not None:
            rows, cols = extra_pairs
            bounds[rows, cols] = -np.inf
    m = min(int(num_candidates), num_items)
    if m < num_items:
        # ONE argpartition yields both the m candidates (unordered — stage 2
        # re-ranks by exact score anyway) and the pruning threshold: the
        # element at position m is exactly the (m+1)-th largest upper bound,
        # the best bound among pruned items.
        partition = np.argpartition(-bounds, kth=m, axis=1)
        candidates = partition[:, :m]
        thresholds = np.take_along_axis(
            bounds, partition[:, m:m + 1], axis=1)[:, 0]
    else:
        candidates = np.tile(np.arange(num_items, dtype=np.int64), (batch, 1))
        thresholds = np.full(batch, -np.inf)
    candidate_bounds = np.take_along_axis(bounds, candidates, axis=1)
    stage2_start = time.perf_counter()
    exact = np.asarray(rescore(candidates))
    # Candidate lists may reach into masked territory when m exceeds the
    # unmasked catalogue; keep the exclusion airtight after rescoring.
    exact[candidate_bounds == -np.inf] = -np.inf
    registry = metrics()
    registry.observe("candidates.stage1_s", stage2_start - stage1_start)
    registry.observe("candidates.stage2_s", time.perf_counter() - stage2_start)
    return candidates, exact, thresholds


class _CertifiedTopK:
    """Shared request plumbing of the candidate backends (counters, API)."""

    def __init__(self, mode: str, factor: int) -> None:
        if mode not in CANDIDATE_MODES:
            raise ValueError(f"unknown candidate mode {mode!r}; "
                             f"options: {CANDIDATE_MODES}")
        factor = int(factor)
        if factor < 1:
            raise ValueError("candidate_factor must be a positive integer")
        self.mode = mode
        self.factor = factor
        self.last_certificate: Optional[Certificate] = None
        self.total_batches = 0
        self.certified_batches = 0
        self.total_users = 0
        self.certified_users = 0
        # Adaptive-escalation counters (see top_k_adaptive).
        self.escalation_rounds = 0
        self.escalated_users = 0
        self.exact_fallback_users = 0

    def _record(self, certificate: Certificate) -> Certificate:
        self.last_certificate = certificate
        self.total_batches += 1
        self.certified_batches += int(certificate.all_certified)
        self.total_users += certificate.num_users
        self.certified_users += certificate.num_certified
        return certificate

    def _finalize(self, pooled_ids: np.ndarray, pooled_scores: np.ndarray,
                  thresholds: np.ndarray, k: int, user_norms: np.ndarray,
                  dim: int, dtype, num_items: int, max_item_norm: float,
                  factor: Optional[int] = None,
                  record: bool = True) -> Tuple[np.ndarray, Certificate]:
        """Rank the pooled exactly-rescored candidates and certify the batch.

        One ``lexsort`` per batch (primary key descending exact score,
        secondary ascending global item id — identical tie policy to the
        sharded exact merge).  Certification is sound against ANY faithful
        rounding of the exhaustive oracle: with ``delta`` the index-dtype
        dot-product slack scaled by ``||u|| * max ||item||``, a pruned item
        (true score <= threshold) can only displace the k-th pick if
        ``threshold >= kth - 3*delta``, and a pooled runner-up only if
        ``(k+1)-th >= kth - 4*delta`` — both are required to fail.
        """
        batch = pooled_ids.shape[0]
        width = min(int(k), num_items)
        order = np.lexsort((pooled_ids, -pooled_scores), axis=-1)
        top_ids = np.take_along_axis(pooled_ids, order[:, :width], axis=1)
        top_scores = np.take_along_axis(pooled_scores, order[:, :width], axis=1)
        kth = (top_scores[:, -1].astype(np.float64) if width
               else np.full(batch, -np.inf))
        if pooled_scores.shape[1] > width:
            runner_up = np.take_along_axis(
                pooled_scores, order[:, width:width + 1], axis=1)[:, 0]
            runner_up = runner_up.astype(np.float64)
        else:
            runner_up = np.full(batch, -np.inf)
        slack = _rounding_slack(dim, dtype) * user_norms * max_item_norm
        certified = ((thresholds < kth - 3.0 * slack)
                     & (runner_up < kth - 4.0 * slack))
        certificate = Certificate(
            self.mode, int(factor if factor is not None else self.factor),
            int(k), certified, thresholds, kth)
        if record:
            self._record(certificate)
        return top_ids, certificate

    def _validate(self, users, k: int) -> Tuple[np.ndarray, int]:
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValueError("users must be a 1-d array of user ids")
        k = int(k)
        if k <= 0:
            raise ValueError("k must be positive")
        return users, k

    def top_k(self, users: Sequence[int], k: int,
              exclude_train: bool = True) -> np.ndarray:
        """Two-stage top-``k`` ids; the certificate lands in
        ``last_certificate`` and the aggregate counters."""
        ids, _ = self.top_k_with_certificate(users, k,
                                             exclude_train=exclude_train)
        return ids

    def top_k_adaptive(self, users: Sequence[int], k: int,
                       exclude_train: bool = True,
                       max_factor: Optional[int] = None) -> np.ndarray:
        """Two-stage top-``k`` escalated until every user is provably exact.

        Serves the batch at the configured factor, then re-serves *only* the
        uncertified users with the factor doubled — doubling again up to
        ``max_factor`` — and finally falls back to the exact single-stage
        path for whoever is still uncertified.  Every returned list is
        therefore identical to exhaustive exact search (certified users by
        the certificate's soundness, fallback users by construction); the
        price is one extra two-stage pass per doubling over a shrinking user
        subset.  Escalation work is tallied in ``escalation_rounds`` /
        ``escalated_users`` / ``exact_fallback_users``.
        """
        users, k = self._validate(users, k)
        max_factor = self.factor if max_factor is None else int(max_factor)
        if max_factor < self.factor:
            raise ValueError("max_factor must be >= the configured factor")
        registry = metrics()
        ids, certificate = self.top_k_with_certificate(
            users, k, exclude_train=exclude_train)
        pending = ~certificate.certified
        factor = self.factor
        # Stop doubling once factor*k covers the catalogue: the pass was
        # already exhaustive, so a bigger factor reruns identical work and a
        # still-uncertified user (a genuine near-tie) needs the exact path.
        while (pending.any() and factor * 2 <= max_factor
               and factor * k < self.num_items):
            factor *= 2
            subset = np.nonzero(pending)[0]
            self.escalation_rounds += 1
            self.escalated_users += int(subset.size)
            registry.inc("candidates.escalation_rounds")
            registry.inc("candidates.escalated_users", int(subset.size))
            # Escalation re-serves users the aggregate counters already
            # counted, so the sub-batch goes unrecorded (record=False) and
            # only the newly certified users are credited.
            with span("candidates.escalation"):
                sub_ids, sub_certificate = self.top_k_with_certificate(
                    users[subset], k, exclude_train=exclude_train,
                    factor=factor, record=False)
            self.certified_users += sub_certificate.num_certified
            ids[subset] = sub_ids
            pending[subset[sub_certificate.certified]] = False
        if pending.any():
            subset = np.nonzero(pending)[0]
            self.exact_fallback_users += int(subset.size)
            registry.inc("candidates.exact_fallback_users", int(subset.size))
            with span("candidates.exact_fallback"):
                ids[subset] = self._exact_backend.top_k(
                    users[subset], k, exclude_train=exclude_train)
        return ids

    @property
    def _exact_backend(self):
        """The exhaustive exact index escalation falls back to."""
        raise NotImplementedError

    def recommend(self, user: int, k: int = 10,
                  exclude_train: bool = True) -> List[int]:
        """Single-user convenience wrapper over :meth:`top_k`."""
        return [int(item) for item in self.top_k([int(user)], k,
                                                 exclude_train=exclude_train)[0]]


class CandidateIndex(_CertifiedTopK):
    """Two-stage (quantised candidates -> exact rescoring) top-K over one
    :class:`InferenceIndex`.

    A drop-in for the index's ``top_k``/``recommend``/``score_pairs`` serving
    surface; ``score_pairs`` stays exact (it never scores the catalogue).
    Only factorised snapshots qualify — stage 1 quantises the item matrix.
    """

    def __init__(self, index: InferenceIndex, mode: str = "int8",
                 factor: int = 4, *,
                 block: Optional[QuantizedItemBlock] = None) -> None:
        super().__init__(mode, factor)
        if not index.is_factorized:
            raise ValueError(
                "candidate generation requires a factorised InferenceIndex "
                "(a model exposing user_item_embeddings); scorer-fallback "
                "snapshots have no item matrix to quantise")
        self.index = index
        if block is not None:
            # Prebuilt (typically memory-mapped snapshot) block: adopting it
            # skips the O(items x dim) requantisation — the on-disk codes are
            # bit-identical to what quantize_item_matrix would rebuild.
            if block.mode != mode:
                raise ValueError(f"prebuilt block was quantised as "
                                 f"{block.mode!r}, not {mode!r}")
            if block.num_items != index.num_items:
                raise ValueError("prebuilt block must cover the catalogue")
            self.block = block
        else:
            self.block = quantize_item_matrix(index.item_embeddings, mode,
                                              item_norms=index.item_norms)
        self._max_item_norm = (float(self.block.item_norms.max())
                               if self.block.num_items else 0.0)

    @property
    def num_users(self) -> int:
        return self.index.num_users

    @property
    def num_items(self) -> int:
        return self.index.num_items

    @property
    def is_factorized(self) -> bool:
        return True

    @property
    def quantized_nbytes(self) -> int:
        return self.block.nbytes

    @property
    def _exact_backend(self):
        return self.index

    def top_k_with_certificate(
            self, users: Sequence[int], k: int, exclude_train: bool = True,
            factor: Optional[int] = None,
            record: bool = True) -> Tuple[np.ndarray, Certificate]:
        users, k = self._validate(users, k)
        factor = self.factor if factor is None else int(factor)
        if exclude_train and self.index.exclusion is None:
            raise ValueError("no exclusion index attached to this CandidateIndex")
        with span("candidates.top_k"):
            user_block = self.index.user_embeddings[users]
            user_norms = np.linalg.norm(
                user_block.astype(np.float64, copy=False), axis=1)
            candidates, scores, thresholds = _two_stage_block(
                user_block, users, user_norms, factor * k, self.block,
                self.index.exclusion, exclude_train,
                lambda candidate_ids: self.index.rescore(users, candidate_ids))
            return self._finalize(candidates, scores, thresholds, k,
                                  user_norms, self.block.dim,
                                  self.index.dtype, self.num_items,
                                  self._max_item_norm, factor=factor,
                                  record=record)

    def score_pairs(self, users: Sequence[int],
                    items: Sequence[int]) -> np.ndarray:
        return self.index.score_pairs(users, items)

    def __repr__(self) -> str:
        return (f"CandidateIndex(mode={self.mode!r}, factor={self.factor}, "
                f"items={self.num_items}, "
                f"certified={self.certified_users}/{self.total_users})")


class ShardedCandidateIndex(_CertifiedTopK):
    """Two-stage top-K over a :class:`ShardedInferenceIndex` — per-shard
    quantised blocks, per-shard exact rescoring, certified merge.

    Every shard quantises its own embedding slice (exactly what a remote
    worker would hold next to — or instead of — its full-precision block),
    runs the two-stage pipeline locally through the parent's executor
    (:func:`~repro.engine.sharding.run_shard_request`), and returns its full exactly-rescored candidate set plus its local
    pruning threshold.  The merge re-ranks the pooled exact scores; the
    batch is certified when the k-th merged score clears both the *largest*
    shard threshold and the pooled runner-up by the rounding slack — no
    pruned item anywhere, and no runner-up, can then reach the top-k.
    """

    def __init__(self, sharded: ShardedInferenceIndex, mode: str = "int8",
                 factor: int = 4, *,
                 blocks: Optional[Sequence[QuantizedItemBlock]] = None) -> None:
        super().__init__(mode, factor)
        self.sharded = sharded
        if blocks is not None:
            # Prebuilt per-shard blocks (sliced from a snapshot's quantised
            # sections): quantisation is per-item, so a row slice of the
            # whole-catalogue block is bit-identical to requantising the
            # shard's embedding slice.
            blocks = list(blocks)
            if len(blocks) != sharded.num_shards:
                raise ValueError("need one prebuilt block per shard")
            for shard, block in zip(sharded.shards, blocks):
                if block.mode != mode:
                    raise ValueError(f"prebuilt block was quantised as "
                                     f"{block.mode!r}, not {mode!r}")
                if block.num_items != shard.num_local_items:
                    raise ValueError("prebuilt blocks must align with the "
                                     "shard partition")
            self.blocks = blocks
        else:
            self.blocks = [
                quantize_item_matrix(shard.item_embeddings, mode,
                                     item_norms=shard.item_norms)
                for shard in sharded.shards
            ]
        # In-process executors resolve a shard's block through the index.
        sharded.blocks[mode] = self.blocks
        self._max_item_norm = max(
            (float(block.item_norms.max())
             for block in self.blocks if block.num_items), default=0.0)

    @property
    def num_users(self) -> int:
        return self.sharded.num_users

    @property
    def num_items(self) -> int:
        return self.sharded.num_items

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    @property
    def is_factorized(self) -> bool:
        return True

    @property
    def quantized_nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    @property
    def _exact_backend(self):
        return self.sharded

    def top_k_with_certificate(
            self, users: Sequence[int], k: int, exclude_train: bool = True,
            factor: Optional[int] = None,
            record: bool = True) -> Tuple[np.ndarray, Certificate]:
        users, k = self._validate(users, k)
        factor = self.factor if factor is None else int(factor)
        if exclude_train and self.sharded.exclusion is None:
            raise ValueError(
                "no exclusion index attached to this ShardedCandidateIndex")
        user_block = self.sharded.user_embeddings[users]
        user_norms = np.linalg.norm(
            user_block.astype(np.float64, copy=False), axis=1)
        with span("candidates.fan_out"), \
                metrics().timer("candidates.fan_out_s"):
            # Every shard runs stage 1 and the exact rescore; the certified
            # merge stays here in the router.
            override_block, extra = self.sharded._payload_state(
                users, exclude_train)
            results = self.sharded.executor.fan_out(
                "candidates", users, factor * k, self.mode,
                bool(exclude_train), override_block, extra)
        with span("candidates.merge"), metrics().timer("candidates.merge_s"):
            pooled_ids = np.concatenate([ids for ids, _, _ in results], axis=1)
            pooled_scores = np.concatenate(
                [scores for _, scores, _ in results], axis=1)
            thresholds = np.max(
                np.stack([thresh for _, _, thresh in results]), axis=0)
            return self._finalize(pooled_ids, pooled_scores, thresholds, k,
                                  user_norms, int(user_block.shape[1]),
                                  self.sharded.dtype, self.num_items,
                                  self._max_item_norm, factor=factor,
                                  record=record)

    def score_pairs(self, users: Sequence[int],
                    items: Sequence[int]) -> np.ndarray:
        return self.sharded.score_pairs(users, items)

    def __repr__(self) -> str:
        return (f"ShardedCandidateIndex(mode={self.mode!r}, "
                f"factor={self.factor}, shards={self.num_shards}, "
                f"items={self.num_items}, "
                f"certified={self.certified_users}/{self.total_users})")
