"""Unit tests for the Tensor class: forward values and backward gradients."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad

from ..helpers import check_gradient


class TestBasicProperties:
    def test_wraps_array(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert t.dtype == np.float64

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert np.shares_memory(d.data, t.data)

    def test_copy_is_independent(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_gradient_accumulates_across_uses(self):
        t = Tensor([2.0], requires_grad=True)
        loss = (t * 3.0 + t * 4.0).sum()
        loss.backward()
        assert t.grad == pytest.approx([7.0])

    def test_backward_twice_accumulates(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        assert t.grad == pytest.approx([4.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = (t * 2.0).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestGradientOwnership:
    """``_accumulate`` adds in place only into arrays it allocated in this pass."""

    def test_shared_first_contribution_is_not_written_in_place(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        weights = np.array([5.0, 7.0])
        # ``__add__`` hands one array to both a and b; a's further
        # contribution from ``a * 3`` is processed after it.
        loss = (a * 3.0).sum() + ((a + b) * weights).sum()
        loss.backward()
        np.testing.assert_array_equal(b.grad, weights)
        np.testing.assert_array_equal(a.grad, weights + 3.0)

    def test_ownership_ends_when_backward_returns(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 2.0 + t * 3.0 + t * 4.0).sum().backward()
        captured = t.grad
        snapshot = captured.copy()
        (t * 5.0 + t * 6.0).sum().backward()
        np.testing.assert_array_equal(captured, snapshot)
        assert t.grad is not captured
        np.testing.assert_array_equal(t.grad, [20.0, 20.0])

    @pytest.mark.parametrize("model_name", ["layergcn", "lightgcn"])
    def test_training_bit_identical_to_out_of_place_sums(self, tiny_split, monkeypatch,
                                                         model_name):
        from repro.models import build_model
        from repro.training import Trainer, TrainerConfig

        def out_of_place(self, grad):
            grad = np.asarray(grad, dtype=self.data.dtype)
            if self.grad is None:
                self.grad = grad.copy() if grad.base is not None or not grad.flags.writeable else grad
            else:
                self.grad = self.grad + grad

        def train(patched):
            with monkeypatch.context() as patch:
                if patched:
                    patch.setattr(Tensor, "_accumulate", out_of_place)
                model = build_model(model_name, tiny_split, embedding_dim=8, num_layers=3,
                                    batch_size=64, seed=2)
                config = TrainerConfig(epochs=2, learning_rate=1e-2, eval_every=100,
                                       restore_best=False)
                history = Trainer(model, tiny_split, config).fit()
            return ([loss.hex() for epoch in history.batch_losses for loss in epoch],
                    [parameter.data.copy() for parameter in model.parameters()])

        in_place_losses, in_place_parameters = train(patched=False)
        reference_losses, reference_parameters = train(patched=True)
        assert in_place_losses == reference_losses
        for got, want in zip(in_place_parameters, reference_parameters):
            assert np.array_equal(got, want)


class TestGatherRowsBackward:
    """``gather_rows``' row-sparse backward against ``zeros_like`` + ``np.add.at`` + add."""

    indices = np.array([3, 0, 3, 5, 3, 0, 6])

    @staticmethod
    def scatter(like, indices, grad):
        full = np.zeros_like(like)
        np.add.at(full, indices, grad)
        return full

    @pytest.fixture()
    def paths(self, monkeypatch):
        """Records, per ``_writable_grad`` call, whether the grad was none, owned or held."""
        from repro.autograd import tensor as tensor_module
        seen = []
        original = Tensor._writable_grad

        def spy(tensor):
            generation = tensor_module._BACKWARD.generation
            if tensor.grad is None:
                seen.append("first")
            else:
                seen.append("owned" if tensor._grad_owner == generation else "held")
            return original(tensor)

        monkeypatch.setattr(Tensor, "_writable_grad", spy)
        return seen

    def test_first_contribution(self, rng, paths):
        t = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        upstream = rng.normal(size=(len(self.indices), 3))
        (t.gather_rows(self.indices) * upstream).sum().backward()
        assert paths == ["first"]
        assert np.array_equal(t.grad, self.scatter(t.data, self.indices, upstream))

    def test_owned_existing_grad(self, rng, paths):
        t = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        other = np.array([6, 6, 1, 3])
        first, second = rng.normal(size=(len(other), 3)), rng.normal(size=(len(self.indices), 3))
        loss = (t.gather_rows(self.indices) * second).sum() + (t.gather_rows(other) * first).sum()
        loss.backward()
        assert paths == ["first", "owned"]
        expected = (self.scatter(t.data, other, first)
                    + self.scatter(t.data, self.indices, second))
        assert np.array_equal(t.grad, expected)

    def test_unowned_existing_grad_is_copied(self, rng, paths):
        t = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        (t * 2.0).sum().backward()
        held = t.grad
        snapshot = held.copy()
        upstream = rng.normal(size=(len(self.indices), 3))
        (t.gather_rows(self.indices) * upstream).sum().backward()
        assert paths == ["held"]
        assert np.array_equal(held, snapshot)
        assert np.array_equal(t.grad, snapshot + self.scatter(t.data, self.indices, upstream))

    def test_shared_first_contribution_is_not_written(self, rng, paths):
        """A sum hands one array to both operands, as the LayerGCN readout does."""
        a = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        weights = rng.normal(size=(8, 3))
        upstream = rng.normal(size=(len(self.indices), 3))
        loss = (a.gather_rows(self.indices) * upstream).sum() + ((a + b) * weights).sum()
        loss.backward()
        assert paths == ["held"]
        assert np.array_equal(b.grad, weights)
        assert np.array_equal(a.grad, weights + self.scatter(a.data, self.indices, upstream))

    def test_one_dimensional_and_negative_indices(self, rng):
        t = Tensor(rng.normal(size=6), requires_grad=True)
        indices = np.array([-1, 5, 2, -4, 0])
        upstream = rng.normal(size=len(indices))
        (t.gather_rows(indices) * upstream).sum().backward()
        assert np.array_equal(t.grad, self.scatter(t.data, indices, upstream))

    def test_empty_indices(self):
        t = Tensor(np.ones((4, 2)), requires_grad=True)
        (t.gather_rows(np.array([], dtype=np.int64)).sum() + (t * 3.0).sum()).backward()
        assert np.array_equal(t.grad, np.full((4, 2), 3.0))


class TestArithmeticGradients:
    def test_add(self, rng):
        check_gradient(lambda t: (t + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_add_broadcast(self, rng):
        other = Tensor(rng.normal(size=(1, 4)))
        check_gradient(lambda t: (t + other).sum(), rng.normal(size=(3, 4)))

    def test_sub(self, rng):
        check_gradient(lambda t: (t - 1.5).sum(), rng.normal(size=(2, 3)))

    def test_rsub(self, rng):
        check_gradient(lambda t: (5.0 - t).sum(), rng.normal(size=(4,)))

    def test_mul(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda t: (t * other).sum(), rng.normal(size=(3, 4)))

    def test_div(self, rng):
        other = Tensor(rng.uniform(1.0, 2.0, size=(3, 4)))
        check_gradient(lambda t: (t / other).sum(), rng.normal(size=(3, 4)))

    def test_rdiv(self, rng):
        check_gradient(lambda t: (2.0 / t).sum(), rng.uniform(0.5, 2.0, size=(5,)))

    def test_neg(self, rng):
        check_gradient(lambda t: (-t).sum(), rng.normal(size=(3,)))

    def test_pow(self, rng):
        check_gradient(lambda t: (t ** 3).sum(), rng.uniform(0.5, 2.0, size=(4,)))

    def test_pow_with_tensor_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_both_operands_receive_grads(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad == pytest.approx([3.0])
        assert b.grad == pytest.approx([2.0])


class TestMatmulGradients:
    def test_matmul(self, rng):
        other = Tensor(rng.normal(size=(4, 5)))
        check_gradient(lambda t: (t @ other).sum(), rng.normal(size=(3, 4)))

    def test_matmul_right_operand(self, rng):
        left = rng.normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(left) @ t).sum(), rng.normal(size=(4, 5)))

    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_allclose((a @ b).data, [[17.0], [39.0]])

    def test_transpose(self, rng):
        check_gradient(lambda t: (t.transpose() * 2.0).sum(), rng.normal(size=(3, 4)))

    def test_t_property(self, rng):
        value = rng.normal(size=(2, 3))
        np.testing.assert_allclose(Tensor(value).T.data, value.T)

    def test_reshape(self, rng):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), rng.normal(size=(2, 3)))


class TestReductionGradients:
    def test_sum_all(self, rng):
        check_gradient(lambda t: t.sum(), rng.normal(size=(3, 4)))

    def test_sum_axis(self, rng):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * 2.0).sum(),
                       rng.normal(size=(3, 4)))

    def test_mean(self, rng):
        check_gradient(lambda t: t.mean(), rng.normal(size=(4, 5)))

    def test_mean_axis(self, rng):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), rng.normal(size=(3, 4)))

    @pytest.mark.parametrize("axis", [None, 0, 2, -1, -3, (0, 2), (-1, 0), (1,), (0, 1, 2)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_matches_numpy(self, rng, axis, keepdims):
        values = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(Tensor(values).mean(axis=axis, keepdims=keepdims).data,
                                   np.mean(values, axis=axis, keepdims=keepdims), rtol=1e-12)

    def test_mean_tuple_axis_gradient(self, rng):
        check_gradient(lambda t: (t.mean(axis=(0, 2)) ** 2).sum(), rng.normal(size=(2, 3, 4)))

    def test_norm(self, rng):
        check_gradient(lambda t: t.norm(axis=1).sum(), rng.normal(size=(3, 4)))


class TestNonlinearityGradients:
    def test_exp(self, rng):
        check_gradient(lambda t: t.exp().sum(), rng.normal(size=(3, 3)))

    def test_log(self, rng):
        check_gradient(lambda t: t.log().sum(), rng.uniform(0.5, 3.0, size=(3, 3)))

    def test_sigmoid(self, rng):
        check_gradient(lambda t: t.sigmoid().sum(), rng.normal(size=(3, 3)))

    def test_tanh(self, rng):
        check_gradient(lambda t: t.tanh().sum(), rng.normal(size=(3, 3)))

    def test_relu(self, rng):
        # Keep values away from zero where ReLU is non-differentiable.
        values = rng.normal(size=(3, 3))
        values[np.abs(values) < 0.1] = 0.5
        check_gradient(lambda t: t.relu().sum(), values)

    def test_leaky_relu(self, rng):
        values = rng.normal(size=(3, 3))
        values[np.abs(values) < 0.1] = 0.5
        check_gradient(lambda t: t.leaky_relu(0.2).sum(), values)

    def test_softplus(self, rng):
        check_gradient(lambda t: t.softplus().sum(), rng.normal(size=(3, 3)))

    def test_softplus_is_stable_for_large_inputs(self):
        out = Tensor([800.0]).softplus()
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(800.0)

    def test_clip(self, rng):
        values = rng.normal(size=(4, 4)) * 3
        values[np.abs(np.abs(values) - 1.0) < 0.1] += 0.3
        check_gradient(lambda t: t.clip(-1.0, 1.0).sum(), values)

    def test_sigmoid_values(self):
        np.testing.assert_allclose(Tensor([0.0]).sigmoid().data, [0.5])


class TestIndexingGradients:
    def test_getitem_row(self, rng):
        check_gradient(lambda t: (t[1] ** 2).sum(), rng.normal(size=(4, 3)))

    def test_gather_rows(self, rng):
        indices = np.array([0, 2, 2, 1])
        check_gradient(lambda t: (t.gather_rows(indices) ** 2).sum(), rng.normal(size=(4, 3)))

    def test_gather_rows_repeated_index_accumulates(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        gathered = t.gather_rows(np.array([1, 1, 1]))
        gathered.sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 0.0], [3.0, 3.0], [0.0, 0.0]])

    def test_comparisons_return_arrays(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert (t > 1.5).tolist() == [False, True, True]
        assert (t <= 2.0).tolist() == [True, True, False]
