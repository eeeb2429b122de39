"""Tests for Module/Parameter bookkeeping, initialisers and optimisers."""

import numpy as np
import pytest

from repro.autograd import Adam, Module, Parameter, SGD, Tensor, init
from repro.autograd.tensor import ROW_BLOCK


class _TinyModel(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 2)))
        self.bias = Parameter(np.zeros(2))

    def forward(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight) + self.bias


class _Nested(Module):
    def __init__(self):
        super().__init__()
        self.inner = _TinyModel()
        self.scale = Parameter(np.ones(1))


class TestModule:
    def test_parameters_discovered(self):
        model = _TinyModel()
        names = dict(model.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_parameters_discovered(self):
        model = _Nested()
        names = dict(model.named_parameters())
        assert set(names) == {"scale", "inner.weight", "inner.bias"}

    def test_num_parameters(self):
        assert _TinyModel().num_parameters() == 6

    def test_train_eval_mode_propagates(self):
        model = _Nested()
        model.eval()
        assert not model.training and not model.inner.training
        model.train()
        assert model.training and model.inner.training

    def test_zero_grad(self):
        model = _TinyModel()
        out = model(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_state_dict_round_trip(self):
        model = _Nested()
        state = model.state_dict()
        state["inner.weight"] = state["inner.weight"] + 5.0
        model.load_state_dict(state)
        np.testing.assert_allclose(model.inner.weight.data, np.ones((2, 2)) + 5.0)

    def test_load_state_dict_rejects_missing_keys(self):
        model = _TinyModel()
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.ones((2, 2))})

    def test_load_state_dict_rejects_shape_mismatch(self):
        model = _TinyModel()
        state = model.state_dict()
        state["bias"] = np.zeros(3)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestInitializers:
    def test_xavier_uniform_bounds(self, rng):
        values = init.xavier_uniform((100, 50), rng=rng)
        bound = np.sqrt(6.0 / 150)
        assert values.min() >= -bound and values.max() <= bound

    def test_xavier_normal_std(self, rng):
        values = init.xavier_normal((500, 500), rng=rng)
        assert values.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_normal(self, rng):
        values = init.normal((1000,), mean=1.0, std=0.5, rng=rng)
        assert values.mean() == pytest.approx(1.0, abs=0.1)

    def test_zeros_and_ones(self):
        assert init.zeros((3, 2)).sum() == 0
        assert init.ones((3, 2)).sum() == 6

    def test_scalar_shape_rejected(self):
        with pytest.raises(ValueError):
            init.xavier_uniform(())


def _quadratic_loss(param: Parameter) -> Tensor:
    # Simple convex objective: ||p - 3||^2
    diff = param - 3.0
    return (diff * diff).sum()


class TestOptimizers:
    def test_sgd_decreases_quadratic(self):
        param = Parameter(np.zeros(4))
        opt = SGD([param], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = _quadratic_loss(param)
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, np.full(4, 3.0), atol=1e-3)

    def test_sgd_momentum_converges(self):
        param = Parameter(np.zeros(4))
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(300):
            opt.zero_grad()
            _quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, np.full(4, 3.0), atol=1e-2)

    def test_adam_converges(self):
        param = Parameter(np.zeros(4))
        opt = Adam([param], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            _quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, np.full(4, 3.0), atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.full(3, 10.0))
        opt = SGD([param], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (param * 0.0).sum().backward()
        opt.step()
        assert np.all(np.abs(param.data) < 10.0)

    def test_step_skips_parameters_without_grad(self):
        param = Parameter(np.ones(2))
        opt = Adam([param], lr=0.1)
        opt.step()  # no gradient accumulated yet
        np.testing.assert_allclose(param.data, np.ones(2))

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(1))], lr=0.0)
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=-1.0)

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.1, betas=(1.5, 0.9))


def _whole_array_adam(values, grads, lr, betas, eps, weight_decay):
    """The whole-array Adam formula: the parameter and both moments per step."""
    beta1, beta2 = betas
    param, m, v = values.copy(), np.zeros_like(values), np.zeros_like(values)
    history = []
    for step, grad in enumerate(grads, start=1):
        if weight_decay:
            grad = grad + weight_decay * param
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** step)
        v_hat = v / (1.0 - beta2 ** step)
        param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append((param, m, v))
    return history


class _Shapes(Module):
    """A 2-D, a 1-D and a 0-d parameter whose row count ROW_BLOCK does not divide."""

    def __init__(self, rng):
        super().__init__()
        rows = 2 * ROW_BLOCK + 37
        self.matrix = Parameter(rng.normal(size=(rows, 5)))
        self.vector = Parameter(rng.normal(size=rows))
        self.scalar = Parameter(np.array(0.75))


class TestAdamRowBlocks:
    """``Adam.step`` updates in place, row block by row block, bit for bit."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_matches_whole_array_formula(self, rng, weight_decay):
        model = _Shapes(rng)
        params = list(model.parameters())
        assert params[0].shape[0] % ROW_BLOCK != 0
        initial = [param.data.copy() for param in params]
        grads = [[rng.normal(size=param.shape) for _ in range(4)] for param in params]
        # Zero gradients and gradients under eps in some rows.
        grads[0][1][3] = 0.0
        grads[0][2][ROW_BLOCK + 1] = 1e-12
        opt = Adam(params, lr=0.05, betas=(0.8, 0.99), eps=1e-8, weight_decay=weight_decay)
        for step in range(4):
            for param, param_grads in zip(params, grads):
                param.grad = param_grads[step]
            opt.step()
        for param, start, param_grads in zip(params, initial, grads):
            expected, m, v = _whole_array_adam(start, param_grads, lr=0.05, betas=(0.8, 0.99),
                                                eps=1e-8, weight_decay=weight_decay)[-1]
            assert np.array_equal(param.data, expected)
            assert np.array_equal(opt._first_moment[id(param)], m)
            assert np.array_equal(opt._second_moment[id(param)], v)

    def test_updates_parameter_in_place(self, rng):
        param = Parameter(rng.normal(size=(ROW_BLOCK + 3, 4)))
        data = param.data
        param.grad = rng.normal(size=param.shape)
        Adam([param], lr=0.1).step()
        assert param.data is data

    def test_state_dict_taken_before_step_is_unchanged(self, rng):
        model = _Shapes(rng)
        before = model.state_dict()
        snapshot = {name: value.copy() for name, value in before.items()}
        for param in model.parameters():
            param.grad = rng.normal(size=param.shape)
        Adam(list(model.parameters()), lr=0.1).step()
        for name, value in before.items():
            assert np.array_equal(value, snapshot[name])
            assert not np.array_equal(value, dict(model.named_parameters())[name].data)
