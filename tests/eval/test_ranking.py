"""Tests for the all-ranking evaluation protocol."""

import numpy as np
import pytest

from repro.eval import EvaluationResult, RankingEvaluator, evaluate_model
from repro.eval.ranking import top_k_indices


class _OracleModel:
    """Scores the user's test items highest — should achieve near-perfect recall."""

    def __init__(self, split):
        self.split = split
        self._truth = split.ground_truth("test")

    def score_users(self, users):
        scores = np.zeros((len(users), self.split.num_items))
        for row, user in enumerate(users):
            for item in self._truth.get(int(user), []):
                scores[row, item] = 10.0
        return scores


class _RandomModel:
    def __init__(self, split, seed=0):
        self.split = split
        self.rng = np.random.default_rng(seed)

    def score_users(self, users):
        return self.rng.normal(size=(len(users), self.split.num_items))


class _TrainEchoModel:
    """Scores only items already seen in training; masking must zero its recall."""

    def __init__(self, split):
        self.split = split
        self._positives = split.train_positive_sets()

    def score_users(self, users):
        scores = np.zeros((len(users), self.split.num_items))
        for row, user in enumerate(users):
            for item in self._positives[int(user)]:
                scores[row, item] = 5.0
        return scores


class _BadShapeModel:
    def __init__(self, split):
        self.split = split

    def score_users(self, users):
        return np.zeros((len(users), 3))


class TestRankingEvaluator:
    def test_oracle_model_gets_high_recall(self, tiny_split):
        evaluator = RankingEvaluator(tiny_split, ks=(10, 20), metrics=("recall", "ndcg"))
        result = evaluator.evaluate(_OracleModel(tiny_split))
        assert result["recall@20"] > 0.9
        assert result["ndcg@20"] > 0.9

    def test_random_model_scores_low(self, tiny_split):
        evaluator = RankingEvaluator(tiny_split, ks=(10,), metrics=("recall",))
        oracle = evaluator.evaluate(_OracleModel(tiny_split))
        random = evaluator.evaluate(_RandomModel(tiny_split))
        assert random["recall@10"] < oracle["recall@10"]

    def test_train_items_are_masked(self, tiny_split):
        evaluator = RankingEvaluator(tiny_split, ks=(10,), metrics=("recall",))
        result = evaluator.evaluate(_TrainEchoModel(tiny_split))
        # All of the echo model's signal is masked away, so it ranks the
        # remaining items arbitrarily (ties) — recall must be far below oracle.
        assert result["recall@10"] < 0.9

    def test_per_user_arrays_align_with_user_count(self, tiny_split):
        evaluator = RankingEvaluator(tiny_split, ks=(10,), metrics=("recall",))
        result = evaluator.evaluate(_OracleModel(tiny_split))
        assert result.num_users_evaluated == len(tiny_split.ground_truth("test"))
        assert result.per_user["recall@10"].shape == (result.num_users_evaluated,)

    def test_validation_partition(self, tiny_split):
        evaluator = RankingEvaluator(tiny_split, ks=(10,), metrics=("recall",))
        result = evaluator.evaluate(_OracleModel(tiny_split), which="valid")
        assert result.num_users_evaluated == len(tiny_split.ground_truth("valid"))

    def test_invalid_metric_rejected(self, tiny_split):
        with pytest.raises(KeyError):
            RankingEvaluator(tiny_split, metrics=("accuracy",))

    def test_invalid_k_rejected(self, tiny_split):
        with pytest.raises(ValueError):
            RankingEvaluator(tiny_split, ks=(0,))

    def test_bad_score_shape_rejected(self, tiny_split):
        evaluator = RankingEvaluator(tiny_split, ks=(5,), metrics=("recall",))
        with pytest.raises(ValueError):
            evaluator.evaluate(_BadShapeModel(tiny_split))

    def test_batched_evaluation_matches_unbatched(self, tiny_split):
        model = _RandomModel(tiny_split, seed=1)
        # Model is stateless w.r.t. batching only if scores are deterministic,
        # so use a fixed score matrix instead.
        fixed_scores = np.random.default_rng(0).normal(
            size=(tiny_split.num_users, tiny_split.num_items))

        class _Fixed:
            def score_users(self, users):
                return fixed_scores[np.asarray(users, dtype=int)]

        small = RankingEvaluator(tiny_split, ks=(10,), metrics=("recall",), batch_size=3)
        large = RankingEvaluator(tiny_split, ks=(10,), metrics=("recall",), batch_size=1000)
        assert small.evaluate(_Fixed())["recall@10"] == pytest.approx(
            large.evaluate(_Fixed())["recall@10"])

    def test_top_k_indices_sorted_by_score(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        top = top_k_indices(scores, 3)
        np.testing.assert_array_equal(top[0], [1, 3, 2])

    def test_evaluate_model_convenience(self, tiny_split):
        result = evaluate_model(_OracleModel(tiny_split), tiny_split, ks=(10,))
        assert "recall@10" in result.values


class TestEvaluationResult:
    def test_dict_access(self):
        result = EvaluationResult(values={"recall@10": 0.5})
        assert result["recall@10"] == 0.5
        assert result.as_dict() == {"recall@10": 0.5}
        assert "recall@10" in list(result.keys())

    def test_format_row(self):
        result = EvaluationResult(values={"recall@10": 0.51234, "ndcg@10": 0.3})
        text = result.format_row(["recall@10"])
        assert "recall@10=0.5123" in text

    def test_repr(self):
        assert "EvaluationResult" in repr(EvaluationResult(values={"recall@10": 0.1}))
