"""The sparse propagation operator behind every GCN model.

All graph models in this library repeat the product
:math:`X^{(l+1)} = \\hat{A} X^{(l)}` with a *fixed* sparse operator
:math:`\\hat{A}`.  :class:`PropagationEngine` owns that operator for the
lifetime of a model:

* the matrix is stored once in CSR form (fast row-major products),
* its transpose is computed lazily and cached (the backward pass only ever
  needs :math:`\\hat{A}^\\top G`),
* the floating dtype is configurable (``float64`` for training parity,
  ``float32`` for memory-bound serving),
* dense output buffers are reusable: callers on a hot non-autograd path can
  pass ``out=`` (or ask for the engine's scratch buffer) so repeated
  propagation does not re-allocate ``(N, d)`` arrays every step.

The differentiable entry point is :meth:`PropagationEngine.apply`: it
records the product in the autograd graph, and its backward pass is the
cached-transpose product.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..autograd.tensor import Tensor

try:  # pragma: no cover - exercised indirectly; absence is environment-specific
    from scipy.sparse import _sparsetools as _csr_tools
except ImportError:  # pragma: no cover
    _csr_tools = None

__all__ = ["PropagationEngine"]


class PropagationEngine:
    """Owns a fixed sparse propagation matrix and its serving machinery.

    Parameters
    ----------
    matrix:
        The (non-learnable) propagation operator — any scipy sparse matrix or
        a dense array, converted to CSR.
    dtype:
        Floating dtype of the operator and of every product it computes.
        ``float64`` (default) matches the autograd substrate bit-for-bit;
        ``float32`` halves memory traffic for inference-only engines.
    """

    def __init__(self, matrix: Union[sp.spmatrix, np.ndarray],
                 dtype: Union[np.dtype, type] = np.float64) -> None:
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        if not sp.issparse(matrix):
            matrix = sp.csr_matrix(np.asarray(matrix, dtype=dtype))
        self._matrix: sp.csr_matrix = matrix.tocsr().astype(dtype, copy=False)
        self._dtype = dtype
        self._transpose: Optional[sp.csr_matrix] = None
        # Scratch buffers for the explicit ``out="scratch"`` fast path; keyed
        # by direction because forward/backward outputs differ in row count.
        self._forward_scratch: Optional[np.ndarray] = None
        self._backward_scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self):
        return self._matrix.shape

    @property
    def nnz(self) -> int:
        return self._matrix.nnz

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._matrix

    def transpose_matrix(self) -> sp.csr_matrix:
        """Cached CSR transpose, built on first use."""
        if self._transpose is None:
            self._transpose = self._matrix.transpose().tocsr()
        return self._transpose

    def to_dense(self) -> np.ndarray:
        return self._matrix.toarray()

    def astype(self, dtype) -> "PropagationEngine":
        """Engine over the same operator in another dtype (shares nothing)."""
        if np.dtype(dtype) == self._dtype:
            return self
        return PropagationEngine(self._matrix, dtype=dtype)

    # ------------------------------------------------------------------ #
    # Products
    # ------------------------------------------------------------------ #
    def _product(self, operator: sp.csr_matrix, dense: np.ndarray,
                 out: Optional[np.ndarray]) -> np.ndarray:
        dense = np.ascontiguousarray(dense, dtype=self._dtype)
        if dense.ndim == 1:
            dense = dense[:, None]
        rows = operator.shape[0]
        if out is None:
            return operator @ dense
        if out.shape != (rows, dense.shape[1]) or out.dtype != self._dtype:
            raise ValueError(
                f"out buffer must have shape {(rows, dense.shape[1])} and dtype "
                f"{self._dtype}; got shape {out.shape}, dtype {out.dtype}"
            )
        if _csr_tools is not None and out.flags.c_contiguous:
            out.fill(0.0)
            try:
                _csr_tools.csr_matvecs(
                    operator.shape[0], operator.shape[1], dense.shape[1],
                    operator.indptr, operator.indices, operator.data,
                    dense.ravel(), out.ravel(),
                )
                return out
            except Exception:  # pragma: no cover - private-API drift
                pass
        out[:] = operator @ dense
        return out

    def _scratch(self, direction: str, shape) -> np.ndarray:
        buffer = self._forward_scratch if direction == "forward" else self._backward_scratch
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape, dtype=self._dtype)
            if direction == "forward":
                self._forward_scratch = buffer
            else:
                self._backward_scratch = buffer
        return buffer

    def forward(self, dense: np.ndarray,
                out: Optional[Union[np.ndarray, str]] = None) -> np.ndarray:
        """Plain-array product ``A @ dense`` (no autograd graph).

        ``out`` may be a preallocated array, or the string ``"scratch"`` to
        reuse the engine-owned buffer.  The scratch buffer is overwritten by
        the next ``forward(..., out="scratch")`` call — callers must consume
        or copy it before then; it must never back a live autograd tensor.
        """
        dense = np.asarray(dense)
        if isinstance(out, str):
            if out != "scratch":
                raise ValueError("out must be an ndarray, None, or 'scratch'")
            columns = dense.shape[1] if dense.ndim > 1 else 1
            out = self._scratch("forward", (self._matrix.shape[0], columns))
        return self._product(self._matrix, dense, out)

    def backward(self, grad: np.ndarray,
                 out: Optional[Union[np.ndarray, str]] = None) -> np.ndarray:
        """Plain-array product ``A.T @ grad`` using the cached transpose."""
        grad = np.asarray(grad)
        if isinstance(out, str):
            if out != "scratch":
                raise ValueError("out must be an ndarray, None, or 'scratch'")
            columns = grad.shape[1] if grad.ndim > 1 else 1
            out = self._scratch("backward", (self._matrix.shape[1], columns))
        return self._product(self.transpose_matrix(), grad, out)

    # ------------------------------------------------------------------ #
    # Autograd entry point
    # ------------------------------------------------------------------ #
    def apply(self, dense: Tensor) -> Tensor:
        """Differentiable product ``A @ dense`` with a fixed sparse operand.

        The backward pass pushes ``A.T @ grad`` to ``dense``.  Output arrays
        are freshly allocated here (never the scratch buffer): the returned
        tensor owns its data for the lifetime of the autograd graph.
        """
        data = self.forward(dense.data)

        def backward(grad: np.ndarray) -> None:
            if dense.requires_grad:
                dense._accumulate(self.backward(grad))

        return Tensor._make(data, (dense,), backward)

    def __call__(self, dense: Tensor) -> Tensor:
        return self.apply(dense)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
                f"dtype={self._dtype.name})")
