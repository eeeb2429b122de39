"""Tests for the vectorized training-data pipeline (repro.data.pipeline)."""

import numpy as np
import pytest

from repro.data import (
    BatchSpec,
    BprPipeline,
    MultiNegativePipeline,
    NegativeSampler,
    ReferenceNegativeSampler,
    ReferenceUserBatchIterator,
    UserRowPipeline,
    build_pipeline,
)
from repro.engine import UserItemIndex


def _sampler(positive_sets, num_items, **kwargs):
    """A sampler over one CSR index built from per-user positive sets."""
    users = [user for user, items in enumerate(positive_sets) for _ in items]
    items = [item for items in positive_sets for item in sorted(items)]
    index = UserItemIndex(len(positive_sets), num_items, users, items)
    return NegativeSampler(index, **kwargs)


class TestBatchSpec:
    def test_defaults(self):
        spec = BatchSpec()
        assert spec.kind == "bpr" and spec.batch_size == 1024
        assert spec.num_negatives == 1 and spec.shuffle

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec(kind="nope")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec(batch_size=0)
        with pytest.raises(ValueError):
            BatchSpec(num_negatives=0)

    def test_spec_is_hashable(self):
        assert hash(BatchSpec()) == hash(BatchSpec())


class TestVectorizedNegativeSampler:
    def test_negatives_avoid_positives_matrix(self, tiny_split):
        sampler = NegativeSampler.from_split(tiny_split, rng=np.random.default_rng(0))
        index = UserItemIndex.from_split(tiny_split, "train")
        negatives = sampler.sample(tiny_split.train_users, num_negatives=6)
        assert negatives.shape == (tiny_split.num_train, 6)
        assert not index.contains(tiny_split.train_users[:, None], negatives).any()

    def test_shares_the_split_index(self, tiny_split):
        sampler = NegativeSampler.from_split(tiny_split)
        assert sampler.index is UserItemIndex.from_split(tiny_split, "train")

    def test_degenerate_user_terminates_with_uniform_fallback(self):
        # One user interacted with the whole catalogue, the other with all
        # but one item: both must terminate, the former uniformly.
        sampler = _sampler([set(range(5)), set(range(4))], 5,
                           rng=np.random.default_rng(0))
        users = np.array([0] * 50 + [1] * 50)
        negatives = sampler.sample(users)
        assert np.all((negatives >= 0) & (negatives < 5))
        # Non-degenerate user 1 only ever receives its single non-positive.
        assert np.all(negatives[50:] == 4)
        # Degenerate user 0 hits more than one item (uniform fallback).
        assert len(set(negatives[:50].tolist())) > 1

    def test_exact_complement_fallback_is_collision_free(self):
        # max_rounds=1 forces the order-statistics fallback for a user whose
        # positives cover most of the catalogue (collisions nearly certain).
        sampler = _sampler([set(range(99))], 100,
                           rng=np.random.default_rng(3), max_rounds=1)
        negatives = sampler.sample(np.zeros(200, dtype=np.int64))
        assert np.all(negatives == 99)

    def test_complement_fallback_uniform_over_gaps(self):
        # Positives leave gaps at {1, 4, 7}; the fallback must reach each.
        sampler = _sampler([{0, 2, 3, 5, 6}], 8,
                           rng=np.random.default_rng(5), max_rounds=1)
        negatives = sampler.sample(np.zeros(300, dtype=np.int64))
        assert set(negatives.tolist()) == {1, 4, 7}

    def test_seeded_determinism(self, tiny_split):
        a = NegativeSampler.from_split(tiny_split, rng=np.random.default_rng(11))
        b = NegativeSampler.from_split(tiny_split, rng=np.random.default_rng(11))
        users = tiny_split.train_users[:64]
        np.testing.assert_array_equal(a.sample(users, 3), b.sample(users, 3))

    def test_marginal_matches_reference_sampler(self, tiny_split):
        """Same distribution as the preserved loop oracle (TV distance)."""
        user = int(np.argmax(np.diff(UserItemIndex.from_split(tiny_split, "train").indptr)))
        draws = 20_000
        users = np.full(draws, user, dtype=np.int64)
        vec = NegativeSampler.from_split(tiny_split, rng=np.random.default_rng(0))
        ref = ReferenceNegativeSampler.from_split(tiny_split, rng=np.random.default_rng(1))
        vec_freq = np.bincount(vec.sample(users), minlength=tiny_split.num_items) / draws
        ref_freq = np.bincount(ref.sample(users), minlength=tiny_split.num_items) / draws
        assert 0.5 * np.abs(vec_freq - ref_freq).sum() < 0.1

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError):
            _sampler([set()], 3, max_rounds=0)

    def test_constructor_requires_source(self):
        with pytest.raises(TypeError):
            NegativeSampler()


class TestBprPipeline:
    def test_epoch_covers_all_interactions_once(self, tiny_split):
        pipeline = BprPipeline(tiny_split, BatchSpec(kind="bpr", batch_size=32),
                               rng=np.random.default_rng(0))
        seen_users, seen_items = [], []
        for users, positives, negatives in pipeline:
            assert users.shape == positives.shape == negatives.shape
            seen_users.append(users)
            seen_items.append(positives)
        pairs = set(zip(np.concatenate(seen_users).tolist(),
                        np.concatenate(seen_items).tolist()))
        expected = set(zip(tiny_split.train_users.tolist(),
                           tiny_split.train_items.tolist()))
        assert pairs == expected

    def test_len(self, tiny_split):
        pipeline = BprPipeline(tiny_split, BatchSpec(kind="bpr", batch_size=32))
        assert len(pipeline) == int(np.ceil(tiny_split.num_train / 32))
        assert len(pipeline) == len(list(iter(pipeline)))

    def test_kind_mismatch_rejected(self, tiny_split):
        with pytest.raises(ValueError):
            BprPipeline(tiny_split, BatchSpec(kind="user_rows"))

    def test_unshuffled_order_is_chronological(self, tiny_split):
        pipeline = BprPipeline(tiny_split,
                               BatchSpec(kind="bpr", batch_size=1_000_000, shuffle=False))
        users, items, _ = next(iter(pipeline))
        np.testing.assert_array_equal(users, tiny_split.train_users)
        np.testing.assert_array_equal(items, tiny_split.train_items)

    def test_multi_negative_override_flattens_into_triples(self, tiny_split):
        # num_negatives > 1 on the pairwise kind expands each positive into
        # n aligned 1-d triples, so any pairwise train_step consumes them.
        pipeline = BprPipeline(tiny_split,
                               BatchSpec(kind="bpr", batch_size=32, num_negatives=3,
                                         shuffle=False),
                               rng=np.random.default_rng(0))
        users, items, negatives = next(iter(pipeline))
        assert users.shape == items.shape == negatives.shape
        assert users.size == 32 * 3
        np.testing.assert_array_equal(users, np.repeat(tiny_split.train_users[:32], 3))
        np.testing.assert_array_equal(items, np.repeat(tiny_split.train_items[:32], 3))


class TestMultiNegativePipeline:
    def test_always_two_dimensional(self, tiny_split):
        pipeline = MultiNegativePipeline(
            tiny_split, BatchSpec(kind="multi_negative", batch_size=64, num_negatives=1))
        for users, _, negatives in pipeline:
            assert negatives.shape == (users.size, 1)

    def test_multiple_negatives_avoid_positives(self, tiny_split):
        pipeline = MultiNegativePipeline(
            tiny_split, BatchSpec(kind="multi_negative", batch_size=64, num_negatives=5),
            rng=np.random.default_rng(2))
        index = UserItemIndex.from_split(tiny_split, "train")
        for users, _, negatives in pipeline:
            assert negatives.shape == (users.size, 5)
            assert not index.contains(users[:, None], negatives).any()


class TestUserRowPipeline:
    def test_rows_match_reference_iterator(self, tiny_split):
        pipeline = UserRowPipeline(tiny_split,
                                   BatchSpec(kind="user_rows", batch_size=16,
                                             shuffle=False))
        reference = ReferenceUserBatchIterator(tiny_split, batch_size=16, shuffle=False)
        for (users, rows), (ref_users, ref_rows) in zip(pipeline, reference):
            np.testing.assert_array_equal(users, ref_users)
            np.testing.assert_array_equal(rows, ref_rows)

    def test_interaction_rows_batch(self, tiny_split):
        pipeline = UserRowPipeline(tiny_split, BatchSpec(kind="user_rows"))
        positives = tiny_split.train_positive_sets()
        rows = pipeline.interaction_rows(np.arange(8))
        assert rows.shape == (8, tiny_split.num_items)
        for user in range(8):
            assert set(np.flatnonzero(rows[user]).tolist()) == positives[user]

    def test_row_dtype_configurable(self, tiny_split):
        pipeline = UserRowPipeline(
            tiny_split, BatchSpec(kind="user_rows", row_dtype="float32"))
        _, rows = next(iter(pipeline))
        assert rows.dtype == np.float32


class TestBuildPipeline:
    @pytest.mark.parametrize("kind,cls", [
        ("bpr", BprPipeline),
        ("multi_negative", MultiNegativePipeline),
        ("user_rows", UserRowPipeline),
    ])
    def test_dispatch(self, tiny_split, kind, cls):
        pipeline = build_pipeline(tiny_split, BatchSpec(kind=kind))
        assert type(pipeline) is cls
        assert pipeline.spec.kind == kind
