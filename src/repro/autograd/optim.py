"""Gradient-descent optimisers.

The paper trains every model with Adam (Section V-A-4); SGD with optional
momentum is provided for completeness and for ablation benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .module import Parameter
from .tensor import ROW_BLOCK, row_blocks

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class holding a parameter list and the zero_grad/step protocol."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(param)] = velocity
                grad = velocity
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with decoupled-style weight decay option."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.001,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        """One Adam update of every parameter that has a gradient.

        The moments and ``param.data`` are updated in place, one block of
        :data:`~repro.autograd.tensor.ROW_BLOCK` rows at a time (a 0-d or
        1-D parameter is one row), with the elementwise ops of
        ``m = b1·m + (1-b1)·g``, ``v = b2·v + ((1-b2)·g)·g`` and
        ``p = p - (lr·m̂) / (√v̂ + eps)`` in that order, so every value is
        bit-identical to the whole-array formula.  An array obtained from
        ``param.data`` before the step sees the update; take a copy
        (``state_dict()`` does) to keep the old values.
        """
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param in self.parameters:
            if param.grad is None:
                continue
            m = self._first_moment.get(id(param))
            v = self._second_moment.get(id(param))
            if m is None:
                m = self._first_moment[id(param)] = np.zeros_like(param.data)
                v = self._second_moment[id(param)] = np.zeros_like(param.data)
            data, grad, m, v = np.atleast_2d(param.data, param.grad, m, v)
            shape = (min(ROW_BLOCK, data.shape[0]),) + data.shape[1:]
            term, denom = np.empty(shape, data.dtype), np.empty(shape, data.dtype)
            decayed = np.empty(shape, data.dtype) if self.weight_decay else None
            for rows in row_blocks(data.shape[0]):
                p, g, m_rows, v_rows = data[rows], grad[rows], m[rows], v[rows]
                t, d = term[:len(p)], denom[:len(p)]
                if self.weight_decay:
                    g = np.add(g, np.multiply(self.weight_decay, p, out=t),
                               out=decayed[:len(p)])
                m_rows *= self.beta1
                m_rows += np.multiply(1.0 - self.beta1, g, out=t)
                v_rows *= self.beta2
                np.multiply(1.0 - self.beta2, g, out=t)
                v_rows += np.multiply(t, g, out=t)
                np.divide(m_rows, bias1, out=t)
                t *= self.lr
                np.divide(v_rows, bias2, out=d)
                np.sqrt(d, out=d)
                d += self.eps
                t /= d
                p -= t
