"""Full-ranking (all-ranking) evaluation protocol, fully vectorised.

Following Section V-A-3 of the paper: for every user with held-out
interactions, *all* items the user has not interacted with in the training
data are candidates; the model scores them, the top-K list is formed and
Recall@K / NDCG@K are averaged over users.

The evaluator routes through :mod:`repro.engine`: training positives are
masked with ONE flat-index assignment per batch (the split's cached
:class:`~repro.engine.UserItemIndex`), and every metric is computed over the
whole batch at once from a hit matrix plus cumulative discount tables — no
per-user Python loop anywhere on the hot path.  The historical loop
implementation survives as :class:`repro.eval.reference.ReferenceRankingEvaluator`
and the two agree within 1e-9 (asserted by the parity tests and
``benchmarks/bench_engine_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..data import DataSplit
from ..engine import InferenceIndex, UserItemIndex, train_exclusion_index
from ..engine.index import top_k_indices
from .metrics import METRIC_FUNCTIONS

__all__ = ["EvaluationResult", "RankingEvaluator", "evaluate_model"]

DEFAULT_KS = (10, 20, 50)
DEFAULT_METRICS = ("recall", "ndcg")

#: Metrics with a batch-vectorised kernel in :meth:`RankingEvaluator._metric_batch`.
VECTORIZED_METRICS = ("recall", "ndcg", "precision", "hit_rate", "map")


@dataclass
class EvaluationResult:
    """Aggregated metrics plus the per-user values behind them.

    ``values`` maps metric keys (e.g. ``"recall@20"``) to the mean over users;
    ``per_user`` holds the raw per-user arrays so significance tests (paired
    t-test across seeds or across models) can be run afterwards.
    """

    values: Dict[str, float] = field(default_factory=dict)
    per_user: Dict[str, np.ndarray] = field(default_factory=dict)
    num_users_evaluated: int = 0

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def keys(self) -> Iterable[str]:
        return self.values.keys()

    def as_dict(self) -> Dict[str, float]:
        return dict(self.values)

    def format_row(self, metrics: Optional[Sequence[str]] = None, precision: int = 4) -> str:
        """Render metrics in a compact, table-friendly string."""
        keys = metrics if metrics is not None else sorted(self.values)
        parts = [f"{key}={self.values[key]:.{precision}f}" for key in keys]
        return "  ".join(parts)

    def __repr__(self) -> str:
        return f"EvaluationResult({self.format_row()})"


class RankingEvaluator:
    """Evaluates a recommender against a data split with the all-ranking protocol.

    Parameters
    ----------
    split:
        The train/valid/test split; the train interactions are used as the
        candidate mask (items already interacted with are excluded).  The
        exclusion index and per-partition ground-truth indexes are built once
        and cached on the split, so repeated evaluations (e.g. per-epoch
        validation inside ``Trainer.fit``) pay nothing to set up.
    ks:
        Cut-offs to report (the paper uses 10, 20, 50).
    metrics:
        Names from :data:`repro.eval.ranking.VECTORIZED_METRICS`.
    batch_size:
        Users scored per dense batch; bounds peak memory at
        ``batch_size * num_items`` doubles.
    """

    def __init__(
        self,
        split: DataSplit,
        ks: Sequence[int] = DEFAULT_KS,
        metrics: Sequence[str] = DEFAULT_METRICS,
        batch_size: int = 256,
    ) -> None:
        unknown = [m for m in metrics if m not in METRIC_FUNCTIONS]
        if unknown:
            raise KeyError(f"unknown metrics {unknown}; options: {sorted(METRIC_FUNCTIONS)}")
        not_vectorized = [m for m in metrics if m not in VECTORIZED_METRICS]
        if not_vectorized:
            raise KeyError(
                f"metrics {not_vectorized} have no vectorised kernel; "
                f"options: {sorted(VECTORIZED_METRICS)}"
            )
        if any(k <= 0 for k in ks):
            raise ValueError("all cut-offs must be positive")
        self.split = split
        self.ks = tuple(int(k) for k in ks)
        self.metrics = tuple(metrics)
        self.batch_size = int(batch_size)
        self._exclusion = train_exclusion_index(split)

    # ------------------------------------------------------------------ #
    def evaluate(self, model, which: str = "test") -> EvaluationResult:
        """Evaluate ``model`` (anything with ``score_users(users) -> ndarray``).

        Models exposing ``user_item_embeddings`` are frozen into an
        :class:`~repro.engine.InferenceIndex` once per call, so scoring is a
        dense matmul per batch; anything else is scored through its
        ``score_users``.
        """
        truth = UserItemIndex.from_split(self.split, which)
        users = truth.users_with_items()
        result = EvaluationResult()
        if users.size == 0:
            return result

        index = InferenceIndex.from_model(
            model, self.split, dtype=np.float64, exclusion=self._exclusion)

        max_k = max(self.ks)
        per_user: Dict[str, np.ndarray] = {
            f"{metric}@{k}": np.empty(users.size, dtype=np.float64)
            for metric in self.metrics for k in self.ks
        }
        # discounts[i] = 1 / log2(i + 2) is the gain of a hit at rank i + 1;
        # its running sum doubles as the IDCG table (best case: all hits at
        # the top), so NDCG needs no per-user ideal-ranking computation.
        discounts = 1.0 / np.log2(np.arange(2, max_k + 2, dtype=np.float64))
        cum_discounts = np.cumsum(discounts)

        for start in range(0, users.size, self.batch_size):
            batch_users = users[start:start + self.batch_size]
            scores = index.scores(batch_users, mask_train=True)
            ranked = top_k_indices(scores, max_k)

            # (batch, width) hit matrix: was the item at each rank relevant?
            relevant = truth.membership(batch_users)
            hits = relevant[np.arange(batch_users.size)[:, None], ranked]
            hits = hits.astype(np.float64)
            num_relevant = truth.counts(batch_users)

            width = ranked.shape[1]
            cum_hits = np.cumsum(hits, axis=1)
            cum_dcg = np.cumsum(hits * discounts[:width], axis=1)

            stop = start + batch_users.size
            for metric in self.metrics:
                for k in self.ks:
                    per_user[f"{metric}@{k}"][start:stop] = self._metric_batch(
                        metric, k, cum_hits, cum_dcg, hits, num_relevant,
                        cum_discounts)

        for key, values in per_user.items():
            result.per_user[key] = values
            result.values[key] = float(values.mean()) if values.size else 0.0
        result.num_users_evaluated = int(users.size)
        return result

    # ------------------------------------------------------------------ #
    @staticmethod
    def _metric_batch(metric: str, k: int, cum_hits: np.ndarray,
                      cum_dcg: np.ndarray, hits: np.ndarray,
                      num_relevant: np.ndarray,
                      cum_discounts: np.ndarray) -> np.ndarray:
        """One metric at one cut-off for a whole batch, no user loop.

        Every evaluated user has ``num_relevant >= 1`` (users without
        held-out items are never scored), so the divisions are safe.
        """
        width = cum_hits.shape[1]
        column = min(k, width) - 1
        if metric == "recall":
            return cum_hits[:, column] / num_relevant
        if metric == "ndcg":
            ideal = cum_discounts[np.minimum(num_relevant, k) - 1]
            return cum_dcg[:, column] / ideal
        if metric == "precision":
            return cum_hits[:, column] / float(k)
        if metric == "hit_rate":
            return (cum_hits[:, column] > 0).astype(np.float64)
        if metric == "map":
            ranks = np.arange(1, width + 1, dtype=np.float64)
            precisions = cum_hits / ranks
            average = np.cumsum(precisions * hits, axis=1)[:, column]
            return average / np.minimum(num_relevant, k)
        raise KeyError(f"no vectorised kernel for metric '{metric}'")


def evaluate_model(model, split: DataSplit, ks: Sequence[int] = DEFAULT_KS,
                   metrics: Sequence[str] = DEFAULT_METRICS,
                   which: str = "test") -> EvaluationResult:
    """One-shot convenience wrapper around :class:`RankingEvaluator`."""
    return RankingEvaluator(split, ks=ks, metrics=metrics).evaluate(model, which=which)
