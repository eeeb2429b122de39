"""Tests for the differentiable sparse-dense propagation product."""

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor
from repro.engine import PropagationEngine

from ..helpers import check_gradient


class TestSparseTensor:
    def test_from_dense_array(self):
        dense = np.array([[0.0, 1.0], [2.0, 0.0]])
        st = PropagationEngine(dense)
        assert st.shape == (2, 2)
        assert st.nnz == 2
        np.testing.assert_allclose(st.to_dense(), dense)

    def test_from_scipy_matrix(self):
        matrix = sp.random(10, 10, density=0.2, random_state=0, format="coo")
        st = PropagationEngine(matrix)
        np.testing.assert_allclose(st.to_dense(), matrix.toarray())

    def test_transpose_cached(self):
        st = PropagationEngine(sp.random(5, 5, density=0.3, random_state=1))
        first = st.transpose_matrix()
        second = st.transpose_matrix()
        assert first is second

    def test_repr(self):
        assert "PropagationEngine" in repr(PropagationEngine(np.eye(3)))


class TestSparseMatmul:
    def test_matches_dense_product(self, rng):
        adjacency = sp.random(6, 6, density=0.4, random_state=2, format="csr")
        dense = rng.normal(size=(6, 4))
        out = PropagationEngine(adjacency).apply(Tensor(dense))
        np.testing.assert_allclose(out.data, adjacency.toarray() @ dense)

    def test_accepts_raw_scipy_matrix(self, rng):
        adjacency = sp.eye(4, format="csr")
        dense = rng.normal(size=(4, 3))
        out = PropagationEngine(adjacency).apply(Tensor(dense))
        np.testing.assert_allclose(out.data, dense)

    def test_gradient_matches_finite_differences(self, rng):
        adjacency = PropagationEngine(
            sp.random(5, 5, density=0.5, random_state=3, format="csr"))
        check_gradient(lambda t: (adjacency.apply(t) ** 2).sum(),
                       rng.normal(size=(5, 3)))

    def test_gradient_is_transpose_product(self, rng):
        matrix = sp.random(4, 4, density=0.6, random_state=4, format="csr")
        dense = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = PropagationEngine(matrix).apply(dense)
        out.sum().backward()
        expected = matrix.toarray().T @ np.ones((4, 2))
        np.testing.assert_allclose(dense.grad, expected)

    def test_rectangular_operator(self, rng):
        matrix = sp.random(3, 7, density=0.5, random_state=5, format="csr")
        dense = Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        out = PropagationEngine(matrix).apply(dense)
        assert out.shape == (3, 2)
        out.sum().backward()
        assert dense.grad.shape == (7, 2)

    def test_no_gradient_when_input_detached(self, rng):
        adjacency = PropagationEngine(sp.eye(3, format="csr"))
        out = adjacency.apply(Tensor(rng.normal(size=(3, 2))))
        assert not out.requires_grad
