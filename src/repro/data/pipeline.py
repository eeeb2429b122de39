"""Vectorized training-data pipeline — the training-side twin of ``repro.engine``.

PR 1 removed every per-user Python loop from the serving/eval path; this
module does the same for the path that *produces* training batches.  All
models route their epoch batching through one of three pipelines, each
described by a declarative :class:`BatchSpec`:

* :class:`BprPipeline` — shuffled ``(users, positives, negatives)`` triples
  for the pairwise BPR objective (Section III-B, "The Loss Function").
* :class:`MultiNegativePipeline` — the same pass but with a ``(B, n)``
  negative matrix per batch (UltraGCN-style multi-negative losses).
* :class:`UserRowPipeline` — ``(users, dense interaction rows)`` batches for
  the autoencoder baselines (MultiVAE, EHCF); rows are scattered from the
  engine's CSR index in one flat-index assignment per batch.

Negative sampling is fully vectorized: candidates are drawn for the whole
batch at once and checked against training positives through
:meth:`repro.engine.UserItemIndex.contains` (a binary search over the
sorted flat ``user * num_items + item`` keys), with bounded re-draw rounds
and an exact complement-sampling fallback so the marginal over non-positive
items stays exactly uniform and termination is guaranteed even for
degenerate users.  The historical pure-Python sampler is preserved verbatim
in :mod:`repro.data.reference_sampling` as the behavioural oracle;
``benchmarks/bench_training_throughput.py`` pins the speedup and the
distributional parity between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..engine.index import UserItemIndex
from .dataset import DataSplit

__all__ = [
    "BatchSpec",
    "NegativeSampler",
    "BatchPipeline",
    "BprPipeline",
    "MultiNegativePipeline",
    "UserRowPipeline",
    "build_pipeline",
    "PIPELINE_KINDS",
]

#: Re-draw rounds before the sampler falls back to exact complement sampling.
#: Each round redraws only the still-colliding entries, so the expected work
#: decays geometrically with the densest user's positive ratio.
DEFAULT_MAX_ROUNDS = 16


# --------------------------------------------------------------------------- #
# Negative sampling
# --------------------------------------------------------------------------- #
class NegativeSampler:
    """Samples items a user has *not* interacted with in the training data.

    The sampler operates on a :class:`~repro.engine.UserItemIndex` (CSR
    ``user -> sorted items``).  Batch sampling draws a whole candidate
    matrix, rejects collisions via one vectorised flat-key binary search per
    round, and finishes any stubborn entries with exact complement sampling,
    so the result is exactly uniform over each user's non-positive items.
    Users whose positives cover the entire catalogue fall back to a uniform
    item so training can proceed (mirroring :meth:`sample_one`).
    """

    def __init__(self, index: UserItemIndex,
                 rng: Optional[np.random.Generator] = None, *,
                 max_rounds: int = DEFAULT_MAX_ROUNDS) -> None:
        if index.num_items <= 0:
            raise ValueError("num_items must be positive")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        self.index = index
        self.num_items = index.num_items
        self.rng = rng or np.random.default_rng()
        self.max_rounds = int(max_rounds)

    @classmethod
    def from_split(cls, split: DataSplit,
                   rng: Optional[np.random.Generator] = None) -> "NegativeSampler":
        """Sampler over the split's cached train index (shared with serving)."""
        return cls(index=UserItemIndex.from_split(split, "train"), rng=rng)

    @classmethod
    def from_index(cls, index: UserItemIndex,
                   rng: Optional[np.random.Generator] = None) -> "NegativeSampler":
        return cls(index=index, rng=rng)

    # ------------------------------------------------------------------ #
    def sample_one(self, user: int) -> int:
        """One negative item for ``user`` via rejection sampling."""
        positives = self.index.items_for(int(user))
        if positives.size >= self.num_items:
            # Degenerate user that interacted with everything: fall back to a
            # uniform item so training can proceed.
            return int(self.rng.integers(self.num_items))
        while True:
            candidate = int(self.rng.integers(self.num_items))
            position = np.searchsorted(positives, candidate)
            if position >= positives.size or positives[position] != candidate:
                return candidate

    def sample(self, users: np.ndarray, num_negatives: int = 1) -> np.ndarray:
        """Vectorised sampling: ``(len(users), num_negatives)`` negatives.

        A whole candidate matrix is drawn up front; colliding entries are
        re-drawn for at most ``max_rounds`` rounds (each round touches only
        the entries that still collide), then the rare leftovers are resolved
        by exact complement sampling, which keeps the marginal exactly
        uniform over non-positives.  ``num_negatives == 1`` returns a 1-d
        array, matching the historical sampler.
        """
        users = np.asarray(users, dtype=np.int64)
        negatives = self.rng.integers(self.num_items,
                                      size=(users.size, num_negatives))
        if users.size:
            # Degenerate users (positives cover the catalogue) keep their
            # uniform draw; everyone else enters the rejection rounds.
            active = self.index.counts(users) < self.num_items
            colliding = self.index.contains(users[:, None], negatives)
            colliding &= active[:, None]
            rows, cols = np.nonzero(colliding)
            for _ in range(self.max_rounds):
                if rows.size == 0:
                    break
                draws = self.rng.integers(self.num_items, size=rows.size)
                negatives[rows, cols] = draws
                still = self.index.contains(users[rows], draws)
                rows, cols = rows[still], cols[still]
            for row, col in zip(rows, cols):
                negatives[row, col] = self._sample_complement(int(users[row]))
        if num_negatives == 1:
            return negatives[:, 0]
        return negatives

    def _sample_complement(self, user: int) -> int:
        """Exact uniform draw from the user's non-positive items.

        The k-th non-positive item of a sorted positive array ``P`` is
        ``k + searchsorted(P - arange(len(P)), k, side='right')`` — the
        standard order-statistics inversion, used only for entries that
        survive every rejection round.
        """
        positives = self.index.items_for(user)
        k = int(self.rng.integers(self.num_items - positives.size))
        shifted = positives - np.arange(positives.size, dtype=np.int64)
        return k + int(np.searchsorted(shifted, k, side="right"))


# --------------------------------------------------------------------------- #
# Batch specification
# --------------------------------------------------------------------------- #
PIPELINE_KINDS = ("bpr", "multi_negative", "user_rows")


@dataclass(frozen=True)
class BatchSpec:
    """Declarative description of one epoch of training batches.

    Attributes
    ----------
    kind:
        ``"bpr"`` (pairwise triples), ``"multi_negative"`` (``(B, n)``
        negative matrices) or ``"user_rows"`` (dense interaction rows).
    batch_size:
        Mini-batch size (interactions for the pairwise kinds, users for
        ``user_rows``).
    num_negatives:
        Negatives per positive; ignored by ``user_rows``.
    shuffle:
        Whether the epoch order is permuted (seeded by the pipeline RNG).
    row_dtype:
        Dtype of the dense rows produced by ``user_rows`` pipelines.
    """

    kind: str = "bpr"
    batch_size: int = 1024
    num_negatives: int = 1
    shuffle: bool = True
    row_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.kind not in PIPELINE_KINDS:
            raise ValueError(f"kind must be one of {PIPELINE_KINDS}, got {self.kind!r}")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.num_negatives <= 0:
            raise ValueError("num_negatives must be positive")


# --------------------------------------------------------------------------- #
# Pipelines
# --------------------------------------------------------------------------- #
class BatchPipeline:
    """Base class: a reusable, seeded epoch-batch generator over one split.

    A pipeline binds a :class:`DataSplit`, a :class:`BatchSpec` and an RNG;
    iterating it yields one epoch.  The train-interaction CSR index is the
    engine's cached per-split build, so serving, evaluation and training all
    share a single index.
    """

    kind: str = ""

    def __init__(self, split: DataSplit, spec: Optional[BatchSpec] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        spec = spec or BatchSpec(kind=self.kind)
        if spec.kind != self.kind:
            raise ValueError(f"{type(self).__name__} requires kind={self.kind!r}, "
                             f"got {spec.kind!r}")
        self.split = split
        self.spec = spec
        self.rng = rng or np.random.default_rng()
        self.index = UserItemIndex.from_split(split, "train")

    @property
    def batch_size(self) -> int:
        return self.spec.batch_size

    def _epoch_order(self, size: int) -> np.ndarray:
        if self.spec.shuffle:
            return self.rng.permutation(size)
        return np.arange(size)

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(split={self.split.name!r}, spec={self.spec})"


class BprPipeline(BatchPipeline):
    """Shuffled ``(users, positives, negatives)`` batches, one epoch per pass.

    Every training interaction is visited exactly once per epoch and paired
    with freshly sampled negatives, mirroring the pairwise BPR loop of the
    paper with zero per-element Python work.  With ``num_negatives > 1``
    each positive expands into that many aligned 1-d triples (the standard
    multi-negative BPR scheme), so every pairwise ``train_step`` consumes
    the batches unchanged whatever the trainer's ``num_negatives`` override.
    """

    kind = "bpr"

    def __init__(self, split: DataSplit, spec: Optional[BatchSpec] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(split, spec, rng)
        self.sampler = NegativeSampler.from_index(self.index, rng=self.rng)

    def __len__(self) -> int:
        return int(np.ceil(self.split.num_train / self.batch_size))

    def _sampled_batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Raw per-batch triples; negatives keep the sampler's shape."""
        order = self._epoch_order(self.split.num_train)
        users = self.split.train_users[order]
        items = self.split.train_items[order]
        for start in range(0, users.size, self.batch_size):
            batch_users = users[start:start + self.batch_size]
            batch_items = items[start:start + self.batch_size]
            negatives = self.sampler.sample(batch_users, self.spec.num_negatives)
            yield batch_users, batch_items, negatives

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for users, items, negatives in self._sampled_batches():
            if negatives.ndim == 2:
                # (B, n) draws flatten into n aligned triples per positive.
                count = negatives.shape[1]
                users = np.repeat(users, count)
                items = np.repeat(items, count)
                negatives = negatives.reshape(-1)
            yield users, items, negatives


class MultiNegativePipeline(BprPipeline):
    """BPR pass that always yields a ``(B, num_negatives)`` negative matrix.

    UltraGCN-style objectives weigh several true negatives per positive; this
    pipeline guarantees the 2-d shape even for ``num_negatives == 1``.
    """

    kind = "multi_negative"

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for users, items, negatives in self._sampled_batches():
            if negatives.ndim == 1:
                negatives = negatives[:, None]
            yield users, items, negatives


class UserRowPipeline(BatchPipeline):
    """Batches of user ids with their dense binary interaction rows.

    Used by the autoencoder-style baselines (MultiVAE, EHCF).  Each batch
    matrix is built by one CSR flat-index scatter (``matrix[rows, cols] = 1``)
    instead of a per-user Python loop.
    """

    kind = "user_rows"

    def interaction_rows(self, users: np.ndarray) -> np.ndarray:
        """Dense ``(len(users), num_items)`` binary rows for the given users."""
        return self.index.dense_rows(users, dtype=np.dtype(self.spec.row_dtype))

    def interaction_row(self, user: int) -> np.ndarray:
        """Dense binary vector of one user's training interactions."""
        return self.interaction_rows(np.asarray([int(user)]))[0]

    def __len__(self) -> int:
        return int(np.ceil(self.split.num_users / self.batch_size))

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        users = self._epoch_order(self.split.num_users)
        for start in range(0, users.size, self.batch_size):
            batch_users = users[start:start + self.batch_size]
            yield batch_users, self.interaction_rows(batch_users)


_PIPELINE_CLASSES = {
    BprPipeline.kind: BprPipeline,
    MultiNegativePipeline.kind: MultiNegativePipeline,
    UserRowPipeline.kind: UserRowPipeline,
}


def build_pipeline(split: DataSplit, spec: BatchSpec,
                   rng: Optional[np.random.Generator] = None) -> BatchPipeline:
    """Instantiate the pipeline class matching ``spec.kind``."""
    try:
        cls = _PIPELINE_CLASSES[spec.kind]
    except KeyError:
        raise ValueError(f"unknown pipeline kind {spec.kind!r}; "
                         f"options: {sorted(_PIPELINE_CLASSES)}") from None
    return cls(split, spec, rng=rng)
