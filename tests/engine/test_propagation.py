"""Tests for the PropagationEngine (CSR operator, dtype policy, buffers)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor
from repro.engine import PropagationEngine

from ..helpers import check_gradient


@pytest.fixture()
def operator():
    return sp.random(7, 5, density=0.4, random_state=0, format="csr")


class TestConstruction:
    def test_from_dense_array(self):
        dense = np.arange(6, dtype=float).reshape(2, 3)
        engine = PropagationEngine(dense)
        np.testing.assert_allclose(engine.to_dense(), dense)
        assert engine.nnz == 5  # one entry is zero

    def test_from_any_sparse_format(self, operator):
        engine = PropagationEngine(operator.tocoo())
        assert engine.matrix.format == "csr"
        assert engine.shape == operator.shape

    def test_dtype_policy(self, operator):
        assert PropagationEngine(operator).dtype == np.float64
        engine32 = PropagationEngine(operator, dtype=np.float32)
        assert engine32.dtype == np.float32
        assert engine32.matrix.dtype == np.float32
        with pytest.raises(ValueError):
            PropagationEngine(operator, dtype=np.int32)

    def test_astype_roundtrip(self, operator):
        engine = PropagationEngine(operator)
        assert engine.astype(np.float64) is engine
        demoted = engine.astype(np.float32)
        assert demoted.dtype == np.float32
        np.testing.assert_allclose(demoted.to_dense(), operator.toarray(),
                                   rtol=1e-6)


class TestProducts:
    def test_forward_matches_scipy(self, operator, rng):
        dense = rng.normal(size=(5, 3))
        engine = PropagationEngine(operator)
        np.testing.assert_allclose(engine.forward(dense), operator @ dense)

    def test_transpose_cached(self, operator):
        engine = PropagationEngine(operator)
        first = engine.transpose_matrix()
        assert engine.transpose_matrix() is first
        np.testing.assert_allclose(first.toarray(), operator.toarray().T)

    def test_backward_matches_scipy(self, operator, rng):
        grad = rng.normal(size=(7, 3))
        engine = PropagationEngine(operator)
        np.testing.assert_allclose(engine.backward(grad), operator.T @ grad)

    def test_out_buffer_reused(self, operator, rng):
        dense = rng.normal(size=(5, 3))
        engine = PropagationEngine(operator)
        out = np.empty((7, 3), dtype=np.float64)
        returned = engine.forward(dense, out=out)
        assert returned is out
        np.testing.assert_allclose(out, operator @ dense)

    def test_scratch_buffer_identity(self, operator, rng):
        dense = rng.normal(size=(5, 3))
        engine = PropagationEngine(operator)
        first = engine.forward(dense, out="scratch")
        second = engine.forward(dense, out="scratch")
        assert first is second  # same reused buffer
        np.testing.assert_allclose(second, operator @ dense)

    def test_bad_out_shape_rejected(self, operator, rng):
        engine = PropagationEngine(operator)
        with pytest.raises(ValueError):
            engine.forward(rng.normal(size=(5, 3)), out=np.empty((3, 3)))

    def test_float32_products(self, operator, rng):
        dense = rng.normal(size=(5, 3))
        engine = PropagationEngine(operator, dtype=np.float32)
        result = engine.forward(dense)
        assert result.dtype == np.float32
        np.testing.assert_allclose(result, operator @ dense, rtol=1e-5)


class TestAutograd:
    def test_apply_matches_sparse_matmul(self, operator, rng):
        engine = PropagationEngine(operator)
        dense = Tensor(rng.normal(size=(5, 2)))
        np.testing.assert_allclose(engine.apply(dense).data,
                                   operator @ dense.data)

    def test_apply_gradient(self, operator, rng):
        engine = PropagationEngine(operator)
        check_gradient(lambda t: (engine.apply(t) ** 2).sum(),
                       rng.normal(size=(5, 2)))

    def test_apply_allocates_fresh_output(self, operator, rng):
        # Autograd outputs must never alias the scratch buffer.
        engine = PropagationEngine(operator)
        dense = Tensor(rng.normal(size=(5, 2)))
        first = engine.apply(dense)
        second = engine.apply(dense)
        assert first.data is not second.data

    def test_callable_alias(self, operator, rng):
        engine = PropagationEngine(operator)
        dense = Tensor(rng.normal(size=(5, 2)))
        np.testing.assert_allclose(engine(dense).data, engine.apply(dense).data)
