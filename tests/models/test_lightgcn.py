"""Tests for LightGCN and its learnable-layer-weight variant."""

import numpy as np
import pytest

from repro.models import LightGCN, WeightedLightGCN
from repro.training import Trainer, TrainerConfig


class TestLightGCN:
    def test_propagation_matches_manual_mean(self, tiny_split):
        model = LightGCN(tiny_split, embedding_dim=8, num_layers=2, seed=0)
        model.eval()
        x0 = model.embeddings
        x1 = model.adjacency.apply(x0)
        x2 = model.adjacency.apply(x1)
        expected = (x0.data + x1.data + x2.data) / 3.0
        np.testing.assert_allclose(model.propagate().data, expected, atol=1e-10)

    def test_zero_layers_reduces_to_mf(self, tiny_split):
        model = LightGCN(tiny_split, embedding_dim=8, num_layers=0, seed=0)
        model.eval()
        np.testing.assert_allclose(model.propagate().data, model.embeddings.data)

    def test_layer_embeddings_count(self, tiny_split):
        model = LightGCN(tiny_split, embedding_dim=8, num_layers=3)
        assert len(model.layer_embeddings()) == 4

    def test_training_reduces_loss(self, tiny_split):
        model = LightGCN(tiny_split, embedding_dim=16, num_layers=2, seed=0)
        config = TrainerConfig(epochs=8, learning_rate=0.02, early_stopping_patience=0)
        history = Trainer(model, tiny_split, config).fit()
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_negative_layers_rejected(self, tiny_split):
        with pytest.raises(ValueError):
            LightGCN(tiny_split, num_layers=-1)

    def test_invalid_embedding_dim_rejected(self, tiny_split):
        with pytest.raises(ValueError):
            LightGCN(tiny_split, embedding_dim=0)

    def test_score_users_uses_cached_embeddings_in_eval(self, tiny_split):
        model = LightGCN(tiny_split, embedding_dim=8, num_layers=1)
        model.eval()
        scores_a = model.score_users([0, 1])
        scores_b = model.score_users([0, 1])
        np.testing.assert_allclose(scores_a, scores_b)


class TestWeightedLightGCN:
    def test_initial_weights_uniform(self, tiny_split):
        model = WeightedLightGCN(tiny_split, embedding_dim=8, num_layers=3)
        weights = model.layer_weight_values()
        np.testing.assert_allclose(weights, np.full(4, 0.25), atol=1e-12)

    def test_weights_sum_to_one_after_training(self, tiny_split):
        model = WeightedLightGCN(tiny_split, embedding_dim=8, num_layers=2, seed=0)
        config = TrainerConfig(epochs=3, learning_rate=0.05, early_stopping_patience=0)
        Trainer(model, tiny_split, config).fit()
        assert model.layer_weight_values().sum() == pytest.approx(1.0)

    def test_layer_logits_receive_gradients(self, tiny_split):
        model = WeightedLightGCN(tiny_split, embedding_dim=8, num_layers=2, seed=0)
        batch = next(iter(model.make_batches()))
        loss = model.train_step(batch)
        loss.backward()
        assert model.layer_logits.grad is not None
        assert np.abs(model.layer_logits.grad).sum() > 0

    def test_propagation_is_weighted_sum(self, tiny_split):
        model = WeightedLightGCN(tiny_split, embedding_dim=8, num_layers=2, seed=0)
        model.eval()
        # With uniform weights the readout equals the LightGCN mean readout.
        light = LightGCN(tiny_split, embedding_dim=8, num_layers=2, seed=0)
        light.embeddings.data = model.embeddings.data.copy()
        light.eval()
        np.testing.assert_allclose(model.propagate().data, light.propagate().data, atol=1e-10)
