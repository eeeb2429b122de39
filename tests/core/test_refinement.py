"""The fused layer-refinement op against the unfused autograd chain.

``refine_layer`` must perform the same floating-point operations, in the
same order, as ``scale_rows(hidden, row_cosine_similarity(hidden, ego) + eps)``,
so every comparison against that chain here is ``np.array_equal``, not a
tolerance.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.functional import row_cosine_similarity, scale_rows
from repro.core import ContentLayerGCN, LayerGCN, refine_layer
from repro.core import layergcn as layergcn_module
from repro.core.refinement import row_norms
from repro.engine import PropagationEngine
from repro.training import Trainer, TrainerConfig

from ..helpers import check_gradient


def chain_refine_layer(hidden, ego, eps=1e-8, ego_norms=None):
    """The unfused refinement: cosine similarity, clip, quotient, + eps, row scaling."""
    similarity = row_cosine_similarity(hidden, ego, eps=eps)
    return scale_rows(hidden, similarity + eps), similarity


def refinement_inputs(rng, rows=12, dim=6):
    """Random layers with the rows DegreeDrop and tiny embeddings produce."""
    hidden = rng.normal(size=(rows, dim))
    ego = rng.normal(size=(rows, dim))
    # Every edge of node 0 pruned: its propagated row is exactly zero.
    hidden[0] = 0.0
    # ||h||·||e|| below eps: the clip's zero-gradient branch.
    hidden[1] *= 1e-9
    ego[1] *= 1e-9
    # Zero hidden and zero ego row: clipped, with a zero dot product.
    hidden[2] = 0.0
    ego[2] = 0.0
    return hidden, ego


def refine_and_backward(refine, hidden_values, ego_values, upstream, eps):
    hidden = Tensor(hidden_values.copy(), requires_grad=True)
    ego = Tensor(ego_values.copy(), requires_grad=True)
    refined, similarity = refine(hidden, ego, eps=eps)
    (refined * upstream).sum().backward()
    return refined.data, similarity.data, hidden.grad, ego.grad


class TestFusedMatchesChain:
    @pytest.mark.parametrize("eps", [1e-8, 1e-3])
    def test_outputs_and_gradients_bit_identical(self, rng, eps):
        hidden, ego = refinement_inputs(rng)
        upstream = rng.normal(size=hidden.shape)
        fused = refine_and_backward(refine_layer, hidden, ego, upstream, eps)
        chain = refine_and_backward(chain_refine_layer, hidden, ego, upstream, eps)
        for name, got, want in zip(("refined", "similarity", "hidden.grad", "ego.grad"),
                                   fused, chain):
            assert np.array_equal(got, want), name

    def test_clipped_row_gets_no_norm_gradient(self, rng):
        hidden, ego = refinement_inputs(rng)
        norm_product = row_norms(hidden).norm * row_norms(ego).norm
        assert norm_product[1, 0] < 1e-8 and norm_product[2, 0] < 1e-8
        upstream = rng.normal(size=hidden.shape)
        _, similarity, hidden_grad, ego_grad = refine_and_backward(
            refine_layer, hidden, ego, upstream, 1e-8)
        # Clipped: similarity = dot / eps, so d/dh = upstream·w + (upstream·h) e / eps.
        weight = similarity[1, 0] + 1e-8
        expected = upstream[1] * weight + (upstream[1] @ hidden[1]) / 1e-8 * ego[1]
        np.testing.assert_allclose(hidden_grad[1], expected, rtol=1e-12)
        np.testing.assert_allclose(ego_grad[1], (upstream[1] @ hidden[1]) / 1e-8 * hidden[1],
                                   rtol=1e-12)

    def test_precomputed_ego_norms_change_nothing(self, rng):
        hidden, ego = refinement_inputs(rng)
        without, _ = refine_layer(Tensor(hidden), Tensor(ego))
        with_norms, _ = refine_layer(Tensor(hidden), Tensor(ego), ego_norms=row_norms(ego))
        assert np.array_equal(without.data, with_norms.data)

    def test_stacked_layers_sharing_one_ego(self, rng):
        """Two propagate-and-refine layers on one ego layer, as LayerGCN runs them."""
        adjacency = PropagationEngine(np.abs(rng.normal(size=(12, 12))) / 12)
        _, ego_values = refinement_inputs(rng)
        upstream = rng.normal(size=ego_values.shape)

        def run(refine):
            ego = Tensor(ego_values.copy(), requires_grad=True)
            current, total = ego, None
            for _ in range(2):
                current, _ = refine(adjacency.apply(current), ego, eps=1e-8)
                total = current if total is None else total + current
            (total * upstream).sum().backward()
            return total.data, ego.grad

        for got, want in zip(run(refine_layer), run(chain_refine_layer)):
            assert np.array_equal(got, want)

    def test_similarity_is_detached(self, rng):
        hidden = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        refined, similarity = refine_layer(hidden, Tensor(rng.normal(size=(4, 3))))
        assert refined.requires_grad
        assert not similarity.requires_grad


class TestFusedGradcheck:
    def test_gradient_wrt_hidden(self, rng):
        hidden, ego = refinement_inputs(rng, rows=6, dim=4)
        # The finite-difference step must not cross the clip, so row 1 is
        # moved well inside the unclipped region here.
        hidden[1] = rng.normal(size=4)
        ego[1] = rng.normal(size=4)
        upstream = rng.normal(size=hidden.shape)
        check_gradient(lambda t: (refine_layer(t, Tensor(ego))[0] * upstream).sum(),
                       hidden, rtol=1e-5, atol=1e-7)

    def test_gradient_wrt_ego(self, rng):
        hidden, ego = refinement_inputs(rng, rows=6, dim=4)
        ego[0] = rng.normal(size=4)
        hidden[1], ego[1] = rng.normal(size=4), rng.normal(size=4)
        hidden[2], ego[2] = rng.normal(size=4), rng.normal(size=4)
        upstream = rng.normal(size=hidden.shape)
        check_gradient(lambda t: (refine_layer(Tensor(hidden), t)[0] * upstream).sum(),
                       ego, rtol=1e-5, atol=1e-7)

    def test_gradient_through_propagate_and_refine(self, rng):
        """The ego layer feeds both the propagation and the similarity."""
        adjacency = PropagationEngine(np.abs(rng.normal(size=(6, 6))) / 6)
        upstream = rng.normal(size=(6, 4))

        def layer_loss(ego):
            refined, _ = refine_layer(adjacency.apply(ego), ego)
            return (refined * upstream).sum()

        check_gradient(layer_loss, rng.normal(size=(6, 4)), rtol=1e-5, atol=1e-7)


def _train(build, monkeypatch, chain):
    with monkeypatch.context() as patch:
        if chain:
            patch.setattr(layergcn_module, "refine_layer", chain_refine_layer)
        model = build()
        config = TrainerConfig(epochs=3, learning_rate=1e-2, eval_every=100,
                               restore_best=False)
        history = Trainer(model, model.split, config).fit()
        model.eval()
        final = model.final_embeddings().copy()
    losses = [loss.hex() for epoch in history.batch_losses for loss in epoch]
    parameters = [parameter.data.copy() for parameter in model.parameters()]
    return losses, parameters, final


def _content_features(split):
    rng = np.random.default_rng(3)
    return rng.normal(size=(split.num_users, 5)), rng.normal(size=(split.num_items, 7))


_LAYERGCN_CONFIGS = [(layers, dropout) for layers in (1, 2, 4)
                     for dropout in ("none", "degreedrop", "dropedge", "mixed")]


class TestTrainingBitIdentical:
    """Three epochs on ``tiny`` with the fused op and with the chain patched in."""

    @pytest.mark.parametrize("num_layers,edge_dropout", _LAYERGCN_CONFIGS)
    def test_layergcn(self, tiny_split, monkeypatch, num_layers, edge_dropout):
        def build():
            return LayerGCN(tiny_split, embedding_dim=8, num_layers=num_layers,
                            edge_dropout=edge_dropout, dropout_ratio=0.2,
                            batch_size=64, seed=5)
        self._assert_identical(build, monkeypatch)

    @pytest.mark.parametrize("mode", ["fuse", "init"])
    def test_content_layergcn(self, tiny_split, monkeypatch, mode):
        users, items = _content_features(tiny_split)

        def build():
            return ContentLayerGCN(tiny_split, user_features=users, item_features=items,
                                   mode=mode, embedding_dim=8, num_layers=2,
                                   batch_size=64, seed=5)
        self._assert_identical(build, monkeypatch)

    @staticmethod
    def _assert_identical(build, monkeypatch):
        fused_losses, fused_parameters, fused_final = _train(build, monkeypatch, chain=False)
        chain_losses, chain_parameters, chain_final = _train(build, monkeypatch, chain=True)
        assert len(fused_losses) > 3
        assert fused_losses == chain_losses
        assert len(fused_parameters) == len(chain_parameters)
        for fused, chain in zip(fused_parameters, chain_parameters):
            assert np.array_equal(fused, chain)
        assert np.array_equal(fused_final, chain_final)
