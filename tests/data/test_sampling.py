"""Tests for negative sampling and the BPR / user-row batch pipelines."""

import numpy as np
import pytest

from repro.data import (
    BatchSpec,
    BprPipeline,
    MultiNegativePipeline,
    NegativeSampler,
    UserRowPipeline,
)
from repro.engine import UserItemIndex


def _bpr(split, batch_size, rng=None):
    return BprPipeline(split, BatchSpec(kind="bpr", batch_size=batch_size),
                       rng=rng)


def _user_rows(split, batch_size, shuffle=True):
    return UserRowPipeline(split, BatchSpec(kind="user_rows",
                                            batch_size=batch_size,
                                            shuffle=shuffle))


class TestNegativeSampler:
    def test_negatives_avoid_positives(self, tiny_split):
        sampler = NegativeSampler.from_split(tiny_split, rng=np.random.default_rng(0))
        positives = tiny_split.train_positive_sets()
        users = tiny_split.train_users[:50]
        negatives = sampler.sample(users)
        for user, negative in zip(users, negatives):
            assert int(negative) not in positives[int(user)]

    def test_multiple_negatives_shape(self, tiny_split):
        sampler = NegativeSampler.from_split(tiny_split, rng=np.random.default_rng(1))
        negatives = sampler.sample(tiny_split.train_users[:10], num_negatives=4)
        assert negatives.shape == (10, 4)

    def test_sample_one(self, tiny_split):
        sampler = NegativeSampler.from_split(tiny_split, rng=np.random.default_rng(2))
        positives = tiny_split.train_positive_sets()
        user = int(tiny_split.train_users[0])
        for _ in range(20):
            assert sampler.sample_one(user) not in positives[user]

    def test_degenerate_user_with_all_items(self):
        index = UserItemIndex(1, 5, np.zeros(5, dtype=np.int64), np.arange(5))
        sampler = NegativeSampler.from_index(index, rng=np.random.default_rng(0))
        assert 0 <= sampler.sample_one(0) < 5

    def test_invalid_num_items(self):
        with pytest.raises(ValueError):
            NegativeSampler.from_index(UserItemIndex(1, 0, [], []))


class TestBprBatchIterator:
    def test_epoch_covers_all_interactions(self, tiny_split):
        iterator = _bpr(tiny_split, 32, rng=np.random.default_rng(0))
        seen = 0
        for users, positives, negatives in iterator:
            assert users.shape == positives.shape == negatives.shape
            seen += users.size
        assert seen == tiny_split.num_train

    def test_len_matches_number_of_batches(self, tiny_split):
        iterator = _bpr(tiny_split, 32, rng=np.random.default_rng(0))
        assert len(iterator) == len(list(iter(iterator)))

    def test_batches_do_not_exceed_batch_size(self, tiny_split):
        iterator = _bpr(tiny_split, 16, rng=np.random.default_rng(0))
        assert all(users.size <= 16 for users, _, _ in iterator)

    def test_negatives_not_in_train_positives(self, tiny_split):
        iterator = _bpr(tiny_split, 64, rng=np.random.default_rng(3))
        positives_per_user = tiny_split.train_positive_sets()
        for users, _, negatives in iterator:
            for user, negative in zip(users, negatives):
                assert int(negative) not in positives_per_user[int(user)]

    def test_invalid_batch_size(self, tiny_split):
        with pytest.raises(ValueError):
            _bpr(tiny_split, 0)

    def test_legacy_multi_negative_shape_preserved(self, tiny_split):
        # (B,) users with a (B, n) negatives matrix comes from the
        # multi-negative pipeline, not from BprPipeline's flattened triples.
        pipeline = MultiNegativePipeline(
            tiny_split, BatchSpec(kind="multi_negative", batch_size=32,
                                  num_negatives=4),
            rng=np.random.default_rng(0))
        users, positives, negatives = next(iter(pipeline))
        assert users.shape == positives.shape == (32,)
        assert negatives.shape == (32, 4)

    def test_shuffling_changes_order(self, tiny_split):
        a = _bpr(tiny_split, tiny_split.num_train, rng=np.random.default_rng(0))
        b = _bpr(tiny_split, tiny_split.num_train, rng=np.random.default_rng(99))
        users_a = next(iter(a))[0]
        users_b = next(iter(b))[0]
        assert not np.array_equal(users_a, users_b)


class TestUserBatchIterator:
    def test_rows_match_training_interactions(self, tiny_split):
        iterator = _user_rows(tiny_split, 16, shuffle=False)
        positives = tiny_split.train_positive_sets()
        for users, rows in iterator:
            for row_index, user in enumerate(users):
                nonzero = set(np.flatnonzero(rows[row_index]).tolist())
                assert nonzero == positives[int(user)]

    def test_every_user_visited_once(self, tiny_split):
        iterator = _user_rows(tiny_split, 7, shuffle=False)
        visited = np.concatenate([users for users, _ in iterator])
        assert sorted(visited.tolist()) == list(range(tiny_split.num_users))

    def test_interaction_row_binary(self, tiny_split):
        iterator = _user_rows(tiny_split, 4)
        row = iterator.interaction_row(0)
        assert set(np.unique(row)).issubset({0.0, 1.0})
        assert row.shape == (tiny_split.num_items,)

    def test_len(self, tiny_split):
        iterator = _user_rows(tiny_split, 10, shuffle=False)
        assert len(iterator) == int(np.ceil(tiny_split.num_users / 10))

    def test_invalid_batch_size(self, tiny_split):
        with pytest.raises(ValueError):
            _user_rows(tiny_split, -1)
