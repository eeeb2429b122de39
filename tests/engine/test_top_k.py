"""The top-k kernel against a per-row ``np.lexsort`` oracle, bit for bit.

:func:`repro.engine.index.top_k_indices` ranks every row under one total
order: score descending, then item id ascending, NaN below ``-inf``.  The
oracle sorts each row on its own under that order, so any tie, mask or NaN
the block prefilter mishandles shows as an unequal array.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import InferenceIndex, UserItemIndex
from repro.engine import index as engine_index
from repro.engine.index import top_k_indices


def lexsort_oracle(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row ``np.lexsort((ids, -scores))``, first ``min(k, width)``."""
    width = min(int(k), scores.shape[1])
    ids = np.arange(scores.shape[1])
    out = np.empty((scores.shape[0], width), dtype=np.int64)
    for row, values in enumerate(scores):
        out[row] = np.lexsort((ids, -values))[:width]
    return out


def forced_block(size: int):
    """Patch the kernel to prefilter with ``size`` items per block.

    Any batch, however small, then takes the prefilter; it falls back to
    the full-row path (0) where ``size`` leaves fewer than ``k`` blocks, as
    the kernel's own rule always does.
    """
    def block_size(width, k):
        return size if size and width // size >= k else 0
    return mock.patch.multiple(engine_index, _block_size=block_size,
                               _MIN_PREFILTER_CELLS=0)


def assert_exact(scores: np.ndarray, k: int) -> None:
    assert np.array_equal(top_k_indices(scores, k), lexsort_oracle(scores, k))


class TestOracle:
    def test_nan_ranks_below_minus_inf(self):
        scores = np.array([[np.nan, 1.0, -np.inf, 0.5]])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [[1, 3]])
        np.testing.assert_array_equal(top_k_indices(scores, 4), [[1, 3, 2, 0]])
        np.testing.assert_array_equal(lexsort_oracle(scores, 4), [[1, 3, 2, 0]])


class TestTopKExactness:
    @pytest.mark.parametrize("block", [0, 4, 8, 25])
    @pytest.mark.parametrize("width", [37, 500, 2001])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_tie_heavy_integer_scores(self, rng, block, width, k):
        scores = rng.integers(0, 3, size=(9, width)).astype(np.float64)
        with forced_block(block):
            assert_exact(scores, k)

    @pytest.mark.parametrize("block", [0, 8])
    def test_mostly_minus_inf_rows(self, rng, block):
        scores = rng.normal(size=(12, 800))
        scores[rng.random(scores.shape) < 0.97] = -np.inf
        scores[0] = -np.inf                # nothing servable
        scores[1, 3:] = -np.inf            # fewer than k finite scores
        scores[2, :-2] = -np.inf           # the finite ones in the tail
        with forced_block(block):
            for k in (1, 10, 40):
                assert_exact(scores, k)

    @pytest.mark.parametrize("block", [0, 6])
    def test_k_at_and_beyond_the_width(self, rng, block):
        scores = rng.integers(0, 5, size=(4, 300)).astype(np.float64)
        scores[:, ::7] = -np.inf
        with forced_block(block):
            for k in (299, 300, 301, 10_000):
                assert_exact(scores, k)
        assert top_k_indices(scores, 10_000).shape == (4, 300)

    def test_tail_block_holds_the_maximum(self, rng):
        # 245 = 30 blocks of 8 plus a 5-item tail the blocks never cover.
        scores = rng.normal(size=(6, 245))
        scores[0, 244] = 10.0
        scores[1, 240:] = 10.0             # the whole tail ties at the top
        scores[2, [3, 241]] = 10.0         # a block item ties a tail item
        scores[3, 240:] = np.nan
        with forced_block(8):
            for k in (1, 3, 6):
                assert_exact(scores, k)

    @pytest.mark.parametrize("start", [0, 1, 30, 31, 59])
    @pytest.mark.parametrize("length", [1, 2, 30, 31, 90])
    def test_aligned_and_misaligned_tie_runs(self, rng, start, length):
        # Width 240 with 8-item blocks: block j holds items j, j + 30, ...,
        # so runs starting at multiples of 30 span whole block rows.
        scores = rng.normal(size=(3, 240))
        scores[:, start:start + length] = 5.0
        scores[1, start:start + length] = -np.inf
        with forced_block(8):
            for k in (1, 4, 20):
                assert_exact(scores, k)

    @pytest.mark.parametrize("block", [0, 5])
    def test_nan_bearing_rows(self, rng, block):
        scores = rng.integers(0, 6, size=(10, 400)).astype(np.float64)
        scores[rng.random(scores.shape) < 0.3] = np.nan
        scores[rng.random(scores.shape) < 0.2] = -np.inf
        scores[0] = np.nan                 # all NaN
        scores[1, :] = -np.inf
        scores[1, ::5] = np.nan            # NaN and -inf only
        scores[2, ::2] = np.nan            # every block holds a NaN
        with forced_block(block):
            for k in (1, 15, 400):
                assert_exact(scores, k)

    def test_nan_does_not_hide_a_block_maximum(self):
        # Width 40 in 4-item blocks: block j holds items j, j+10, j+20, j+30.
        # Block 2 holds both a NaN (item 2) and the row maximum (item 12);
        # blocks 0 and 1 tie at 5.  A NaN-propagating block maximum would
        # hide item 12 behind exactly k = 2 kept blocks.
        scores = np.zeros((1, 40))
        scores[0, [0, 1]] = 5.0
        scores[0, 2] = np.nan
        scores[0, 12] = 7.0
        with forced_block(4):
            np.testing.assert_array_equal(top_k_indices(scores, 2), [[12, 0]])
            assert_exact(scores, 2)

    def test_float32_and_empty_shapes(self, rng):
        scores = rng.integers(0, 4, size=(5, 3000)).astype(np.float32)
        assert_exact(scores, 20)
        assert top_k_indices(np.zeros((0, 7)), 3).shape == (0, 3)
        assert top_k_indices(np.zeros((2, 7)), 0).shape == (2, 0)
        assert top_k_indices(np.zeros((2, 0)), 3).shape == (2, 0)

    def test_default_block_rule_prefilters_wide_rows(self, rng):
        """The serve-batch shape takes the prefilter and stays exact."""
        assert engine_index._block_size(20_000, 20) > 0
        assert engine_index._block_size(39, 10) == 0
        scores = rng.normal(size=(64, 20_000))
        scores[rng.random(scores.shape) < 0.001] = -np.inf
        scores[0, :19_990] = -np.inf       # fewer than k servable items
        scores[1, 100:140] = scores[1].max()  # ties across many blocks
        assert_exact(scores, 20)

    @pytest.mark.parametrize("fill", [0.0, -np.inf, np.nan])
    def test_all_tied_rows_stay_small(self, fill):
        """A row of ties keeps k candidates, not the whole row.

        A constant model (or a fully masked or NaN row) ties every item at
        the k-th score; the top k are then the k lowest ids, and the full-row
        path must not build row-sized index or sort arrays to find them.
        """
        scores = np.full((64, 20_000), fill)
        expected = np.tile(np.arange(20), (64, 1))
        tracemalloc.start()
        try:
            top = top_k_indices(scores, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(top, expected)
        assert peak < 1.5 * scores.nbytes


_VALUES = st.sampled_from([0.0, 1.0, 2.0, -1.5, np.inf, -np.inf, np.nan])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_matches_lexsort_oracle(data):
    num_rows = data.draw(st.integers(1, 5), label="rows")
    width = data.draw(st.integers(1, 160), label="width")
    k = data.draw(st.integers(1, width + 3), label="k")
    block = data.draw(st.integers(0, 12), label="block")
    cells = data.draw(st.lists(_VALUES, min_size=num_rows * width,
                               max_size=num_rows * width), label="values")
    scores = np.asarray(cells, dtype=np.float64).reshape(num_rows, width)
    with forced_block(block):
        assert_exact(scores, k)


class TestInferenceIndexTopK:
    def _index(self, rng, num_users=40, num_items=600, dim=3):
        # Integer embeddings give integer scores: ties everywhere.
        users = rng.integers(-2, 3, size=(num_users, dim)).astype(np.float64)
        items = rng.integers(-2, 3, size=(num_items, dim)).astype(np.float64)
        seen_users = np.repeat(np.arange(num_users), 25)
        seen_items = rng.integers(0, num_items, seen_users.size)
        exclusion = UserItemIndex(num_users, num_items, seen_users, seen_items)
        return InferenceIndex(num_users, num_items, user_embeddings=users,
                              item_embeddings=items, exclusion=exclusion)

    @pytest.mark.parametrize("k", [10, 600])
    def test_factorised_and_scorer_paths_match_oracle(self, rng, k):
        index = self._index(rng)
        users = np.arange(index.num_users)
        expected = lexsort_oracle(index.scores(users, mask_train=True), k)
        np.testing.assert_array_equal(index.top_k(users, k), expected)
        scorer = InferenceIndex(
            index.num_users, index.num_items,
            scorer=lambda batch: index.scores(batch),
            exclusion=index.exclusion)
        np.testing.assert_array_equal(scorer.top_k(users, k), expected)
