"""Tests for item-partitioned sharded serving (repro.engine.sharding)."""

import numpy as np
import pytest

from repro.engine import (
    InferenceIndex,
    ItemShard,
    RecommendationService,
    SerialExecutor,
    ShardedInferenceIndex,
    ThreadedExecutor,
    UserItemIndex,
    partition_items,
)
from repro.models import BprMF, MultiVAE


@pytest.fixture()
def model(tiny_split):
    model = BprMF(tiny_split, embedding_dim=8, seed=2)
    model.eval()
    return model


@pytest.fixture()
def index(model, tiny_split):
    return InferenceIndex.from_model(model, tiny_split)


def safe_masked_k(index):
    """Largest k whose masked top-k never reaches the -inf tail.

    Beyond it the lists pad with exact-tied -inf entries in ascending id
    order; ``test_masked_tail_parity`` compares that tail.
    """
    return index.num_items - int(index.exclusion.counts().max())


class TestPartitionItems:
    def test_contiguous_blocks(self):
        parts = partition_items(10, 4, "contiguous")
        assert [list(p) for p in parts] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_strided_deal(self):
        parts = partition_items(7, 3, "strided")
        assert [list(p) for p in parts] == [[0, 3, 6], [1, 4], [2, 5]]

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    def test_non_divisible_catalogue_leaves_empty_shards(self, policy):
        parts = partition_items(5, 7, policy)
        assert len(parts) == 7
        assert sum(p.size for p in parts) == 5
        assert sum(p.size == 0 for p in parts) == 2

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_items,num_shards",
                             [(40, 1), (40, 7), (40, 40), (3, 8), (0, 3)])
    def test_exact_disjoint_cover(self, policy, num_items, num_shards):
        parts = partition_items(num_items, num_shards, policy)
        assert len(parts) == num_shards
        merged = np.concatenate(parts) if parts else np.empty(0, np.int64)
        assert sorted(merged.tolist()) == list(range(num_items))
        for part in parts:  # each shard's ids arrive sorted
            assert np.array_equal(part, np.sort(part))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_items(10, 0)
        with pytest.raises(ValueError):
            partition_items(10, 2, policy="roundrobin")


class TestItemShard:
    def test_locate_maps_owned_items_only(self, index):
        ids = np.array([3, 7, 11], dtype=np.int64)
        shard = ItemShard(0, ids, index.item_embeddings[ids])
        owned, local = shard.locate(np.array([3, 4, 11, 7, 0]))
        np.testing.assert_array_equal(owned, [True, False, True, True, False])
        assert list(local[owned]) == [0, 2, 1]

    def test_empty_shard_yields_zero_width_candidates(self, index):
        empty = np.empty(0, dtype=np.int64)
        shard = ItemShard(0, empty, index.item_embeddings[empty])
        users = np.arange(4)
        ids, scores = shard.local_top_k(index.user_embeddings[users], users,
                                        k=5, exclude_train=False)
        assert ids.shape == (4, 0) and scores.shape == (4, 0)
        owned, _ = shard.locate(np.array([0, 1]))
        assert not owned.any()

    def test_local_exclusion_matches_parent_slice(self, index, tiny_split):
        sharded = ShardedInferenceIndex.from_index(index, 3, policy="strided")
        parent = index.exclusion
        for shard in sharded.shards:
            for user in range(0, tiny_split.num_users, 7):
                expected = [item for item in parent.items_for(user)
                            if item in set(shard.item_ids.tolist())]
                got = shard.item_ids[shard.exclusion.items_for(user)]
                assert list(got) == expected

    def test_mismatched_embedding_slice_raises(self, index):
        with pytest.raises(ValueError):
            ItemShard(0, np.array([0, 1]), index.item_embeddings[:3])


@pytest.fixture()
def tied_index(index, rng):
    """Integer-valued embeddings: integer scores, ties everywhere."""
    dim = index.user_embeddings.shape[1]
    return InferenceIndex(
        index.num_users, index.num_items,
        user_embeddings=rng.integers(-1, 2, (index.num_users, dim)).astype(float),
        item_embeddings=rng.integers(-1, 2, (index.num_items, dim)).astype(float),
        exclusion=index.exclusion)


class TestShardedParity:
    """The acceptance gate: sharded == unsharded, bit for bit, ties included."""

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_masked_top_k_parity(self, index, policy, num_shards):
        users = np.arange(index.num_users)
        k = safe_masked_k(index)
        sharded = ShardedInferenceIndex.from_index(index, num_shards,
                                                   policy=policy)
        np.testing.assert_array_equal(index.top_k(users, k),
                                      sharded.top_k(users, k))

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_tie_heavy_parity(self, tied_index, policy, num_shards):
        users = np.arange(tied_index.num_users)
        sharded = ShardedInferenceIndex.from_index(tied_index, num_shards,
                                                   policy=policy)
        for k in (1, 10, tied_index.num_items):
            for exclude_train in (True, False):
                np.testing.assert_array_equal(
                    tied_index.top_k(users, k, exclude_train=exclude_train),
                    sharded.top_k(users, k, exclude_train=exclude_train))

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_masked_tail_parity(self, index, policy, num_shards):
        """k = num_items: the -inf masked tail is compared too."""
        users = np.arange(index.num_users)
        sharded = ShardedInferenceIndex.from_index(index, num_shards,
                                                   policy=policy)
        np.testing.assert_array_equal(
            index.top_k(users, index.num_items, exclude_train=True),
            sharded.top_k(users, index.num_items, exclude_train=True))

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [2, 4, 7])
    def test_k_larger_than_any_shard(self, index, policy, num_shards):
        """k > items-per-shard: every shard returns all it has, merge is exact."""
        users = np.arange(index.num_users)
        k = index.num_items  # larger than every shard for num_shards >= 2
        sharded = ShardedInferenceIndex.from_index(index, num_shards,
                                                   policy=policy)
        result = sharded.top_k(users, k, exclude_train=False)
        assert result.shape == (users.size, index.num_items)  # no over-return
        np.testing.assert_array_equal(
            index.top_k(users, k, exclude_train=False), result)

    def test_k_beyond_catalogue_clamps_like_unsharded(self, index):
        users = np.arange(5)
        sharded = ShardedInferenceIndex.from_index(index, 4)
        result = sharded.top_k(users, index.num_items + 100, exclude_train=False)
        assert result.shape == (5, index.num_items)
        np.testing.assert_array_equal(
            index.top_k(users, index.num_items + 100, exclude_train=False),
            result)

    def test_more_shards_than_items(self, index):
        """Empty shards (S > catalogue) contribute nothing and break nothing."""
        users = np.arange(index.num_users)
        sharded = ShardedInferenceIndex.from_index(index, index.num_items + 5)
        assert any(s.num_local_items == 0 for s in sharded.shards)
        np.testing.assert_array_equal(index.top_k(users, 10),
                                      sharded.top_k(users, 10))

    def test_each_row_has_unique_items(self, index):
        sharded = ShardedInferenceIndex.from_index(index, 7, policy="strided")
        result = sharded.top_k(np.arange(index.num_users), index.num_items,
                               exclude_train=False)
        for row in result:  # no item fabricated or duplicated by the merge
            assert len(set(row.tolist())) == result.shape[1]

    def test_score_pairs_parity_and_range_check(self, index, rng):
        users = rng.integers(0, index.num_users, 64)
        items = rng.integers(0, index.num_items, 64)
        sharded = ShardedInferenceIndex.from_index(index, 5, policy="strided")
        np.testing.assert_array_equal(index.score_pairs(users, items),
                                      sharded.score_pairs(users, items))
        with pytest.raises(IndexError):
            sharded.score_pairs(users[:1], np.array([index.num_items]))

    def test_recommend_matches_unsharded(self, index):
        sharded = ShardedInferenceIndex.from_index(index, 3)
        assert sharded.recommend(4, k=6) == index.recommend(4, k=6)


class TestMergeDeterminism:
    def test_ties_break_by_ascending_item_id(self):
        ids = np.array([[9, 2, 5], [1, 8, 0]])
        scores = np.array([[1.0, 1.0, 2.0], [3.0, 3.0, 3.0]])
        merged = ShardedInferenceIndex._merge(ids, scores, width=3)
        np.testing.assert_array_equal(merged, [[5, 2, 9], [0, 1, 8]])

    def test_neg_inf_candidates_sort_last(self):
        ids = np.array([[0, 1, 2]])
        scores = np.array([[-np.inf, 5.0, -np.inf]])
        merged = ShardedInferenceIndex._merge(ids, scores, width=3)
        np.testing.assert_array_equal(merged, [[1, 0, 2]])


class TestExecutors:
    REQUEST = (np.arange(6, dtype=np.int64), 3, True, None, None)

    def test_serial_runs_in_order(self, index):
        sharded = ShardedInferenceIndex.from_index(index, 5,
                                                   executor=SerialExecutor())
        results = sharded.executor.fan_out("top_k", *self.REQUEST)
        assert len(results) == 5
        users = self.REQUEST[0]
        for shard, (ids, scores) in zip(sharded.shards, results):
            want_ids, want_scores = shard.local_top_k(
                index.user_embeddings[users], users, 3, True)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(scores, want_scores)

    def test_threaded_preserves_task_order(self, index):
        serial = ShardedInferenceIndex.from_index(index, 8)
        executor = ThreadedExecutor(max_workers=4)
        ShardedInferenceIndex.from_index(index, 8, executor=executor)
        expected = serial.executor.fan_out("top_k", *self.REQUEST)
        results = executor.fan_out("top_k", *self.REQUEST)
        assert [ids.tolist() for ids, _ in results] == \
            [ids.tolist() for ids, _ in expected]
        executor.close()
        assert executor._pool is None  # close releases the pool

    def test_threaded_single_task_runs_inline(self, index):
        executor = ThreadedExecutor()
        ShardedInferenceIndex.from_index(index, 1, executor=executor)
        assert len(executor.fan_out("top_k", *self.REQUEST)) == 1
        assert executor._pool is None  # no pool spun up for one shard
        executor.close()

    def test_threaded_fanout_parity(self, index):
        users = np.arange(index.num_users)
        serial = ShardedInferenceIndex.from_index(index, 4)
        threaded = ShardedInferenceIndex.from_index(
            index, 4, executor=ThreadedExecutor(max_workers=4))
        np.testing.assert_array_equal(serial.top_k(users, 10),
                                      threaded.top_k(users, 10))
        threaded.close()


class TestValidation:
    def test_requires_factorized_index(self, tiny_split):
        vae = MultiVAE(tiny_split, embedding_dim=8, seed=0)
        vae.eval()
        scorer_index = InferenceIndex.from_model(vae, tiny_split)
        assert not scorer_index.is_factorized
        with pytest.raises(ValueError, match="factorised"):
            ShardedInferenceIndex.from_index(scorer_index, 2)

    def test_top_k_argument_validation(self, index):
        sharded = ShardedInferenceIndex.from_index(index, 2)
        with pytest.raises(ValueError):
            sharded.top_k(np.arange(3), 0)
        with pytest.raises(ValueError):
            sharded.top_k(np.arange(4).reshape(2, 2), 3)

    def test_exclude_train_without_exclusion_raises(self, index):
        bare = InferenceIndex(index.num_users, index.num_items,
                              user_embeddings=index.user_embeddings,
                              item_embeddings=index.item_embeddings)
        sharded = ShardedInferenceIndex.from_index(bare, 2)
        with pytest.raises(ValueError):
            sharded.top_k(np.arange(3), 5)
        np.testing.assert_array_equal(
            sharded.top_k(np.arange(3), 5, exclude_train=False),
            bare.top_k(np.arange(3), 5, exclude_train=False))

    def test_shards_must_cover_catalogue(self, index):
        ids = np.arange(3, dtype=np.int64)
        shard = ItemShard(0, ids, index.item_embeddings[ids])
        with pytest.raises(ValueError, match="cover"):
            ShardedInferenceIndex(index.num_users, index.num_items,
                                  index.user_embeddings, [shard])


class TestServiceIntegration:
    @pytest.mark.parametrize("num_shards", [2, 4, 7])
    def test_service_routes_through_shards(self, model, tiny_split, num_shards):
        users = np.arange(tiny_split.num_users)
        plain = RecommendationService(model)
        sharded = RecommendationService(model, num_shards=num_shards)
        assert sharded.sharded is not None
        assert sharded.sharded.num_shards == num_shards
        np.testing.assert_array_equal(plain.top_k(users, 8),
                                      sharded.top_k(users, 8))

    def test_service_parallel_executor(self, model, tiny_split):
        users = np.arange(tiny_split.num_users)
        sharded = RecommendationService(model, num_shards=4,
                                        executor="threads")
        plain = RecommendationService(model)
        np.testing.assert_array_equal(plain.top_k(users, 8),
                                      sharded.top_k(users, 8))
        sharded.close()

    def test_single_shard_stays_on_plain_path(self, model):
        service = RecommendationService(model, num_shards=1)
        assert service.sharded is None

    def test_invalid_shard_count(self, model):
        with pytest.raises(ValueError):
            RecommendationService(model, num_shards=0)

    def test_parallel_without_shards_rejected(self, model):
        """The removed parallel=True option fails loudly instead of silently
        serving serially (executor="threads" replaces it)."""
        with pytest.raises(TypeError, match="parallel"):
            RecommendationService(model, parallel=True)

    def test_refresh_reshards_new_snapshot(self, model, tiny_split):
        service = RecommendationService(model, num_shards=3)
        executor = service.sharded.executor
        model.user_factors.data[:] = -model.user_factors.data
        service.refresh()
        # The sharded backend was rebuilt from the new snapshot (same
        # executor, fresh shard slices) and serves the new weights.
        assert service.sharded.executor is executor
        plain = RecommendationService(model)
        users = np.arange(tiny_split.num_users)
        np.testing.assert_array_equal(plain.top_k(users, 8),
                                      service.top_k(users, 8))

    def test_batched_requests_cross_shard_blocks(self, model, tiny_split):
        users = np.arange(tiny_split.num_users)
        small = RecommendationService(model, num_shards=4, batch_size=7)
        large = RecommendationService(model, num_shards=4, batch_size=10_000)
        np.testing.assert_array_equal(small.top_k(users, 5),
                                      large.top_k(users, 5))

    def test_repr_mentions_sharding(self, model):
        service = RecommendationService(model, num_shards=3,
                                        executor="threads")
        assert "shards=3" in repr(service)
        service.close()
