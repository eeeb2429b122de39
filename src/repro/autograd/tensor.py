"""Reverse-mode automatic differentiation on top of NumPy arrays.

The paper's models (LightGCN, LayerGCN and the baselines) are trained with
gradient descent in PyTorch.  PyTorch is not available in this environment,
so this module provides the minimal-but-complete autograd substrate the rest
of the library is built on: a :class:`Tensor` that records the operations
applied to it and can back-propagate exact gradients through them.

Design notes
------------
* A ``Tensor`` wraps a ``numpy.ndarray`` (always ``float64`` unless the caller
  asks otherwise) plus an optional gradient buffer and a closure that knows
  how to push gradients to its parents.
* The graph is a DAG of ``Tensor`` nodes; :meth:`Tensor.backward` runs a
  topological sort and calls each node's backward closure exactly once.
* Broadcasting is supported for the element-wise operators; gradients are
  summed back down to the original shape by :func:`_unbroadcast`.
* Sparse propagation (the :math:`\\hat{A} X` product at the heart of every
  GCN model here) is :meth:`repro.engine.PropagationEngine.apply`, which
  plugs into the same graph.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "ROW_BLOCK", "row_blocks"]

#: Rows per block of the (N, T) training kernels (the layer refinement and
#: ``Adam.step``): their row-wise ops run on one block at a time into arrays
#: allocated once per call, instead of on whole-matrix temporaries.
ROW_BLOCK = 512


def row_blocks(rows: int) -> Iterable[slice]:
    """Consecutive slices of at most :data:`ROW_BLOCK` rows covering ``rows``."""
    return (slice(start, start + ROW_BLOCK) for start in range(0, rows, ROW_BLOCK))


class _GradMode:
    """Process-wide switch that disables graph construction (inference mode)."""

    enabled: bool = True


class no_grad:
    """Context manager mirroring ``torch.no_grad()``.

    While active, newly created tensors do not record backward closures, which
    makes evaluation loops cheaper and prevents accidental graph growth.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GradMode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether autograd graph construction is currently enabled."""
    return _GradMode.enabled


class _BackwardPass(threading.local):
    """Generation number of the ``backward()`` running in this thread (0: none).

    A gradient array allocated during a pass (by :meth:`Tensor._accumulate`
    or :meth:`Tensor._writable_grad`) is stamped with the current generation
    and takes later contributions of the same pass in place.  Generations
    are never reused, so ownership ends when the pass that allocated the
    array returns.
    """

    generation: int = 0


_BACKWARD = _BackwardPass()
_GENERATIONS = itertools.count(1)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _gathered_row_sums(indices: np.ndarray, grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``indices`` and, per row, the sum of its ``grad`` rows.

    Each sum starts from zero and adds the row's gradients in index order,
    as ``np.add.at`` into zeros does: a CSR matrix of ones whose row r lists,
    in increasing order, the positions where ``indices`` is ``rows[r]``,
    times ``grad`` (scipy's product adds ``1.0·g`` term by term into zeros).
    """
    order = np.argsort(indices, kind="stable")
    ordered = indices[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    rows = ordered[starts]
    selector = sp.csr_matrix(
        (np.ones(order.size, dtype=grad.dtype), order, np.append(starts, order.size)),
        shape=(rows.size, order.size))
    return rows, selector @ grad.reshape(order.size, math.prod(grad.shape[1:]))


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array that supports reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_grad_owner")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=np.float64,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data, dtype=dtype)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name
        # Generation of the backward pass that allocated ``grad`` (0: none).
        self._grad_owner = 0

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one gradient contribution to ``self.grad``.

        A first contribution is stored by reference when it is a writable
        base array: the caller may hand the same array to several parents
        (``__add__`` does), so it is never written in place.  Only an array
        allocated during the running ``backward()`` is written in place: by
        this method, which adds the later contributions of that pass into an
        array it allocated (the same IEEE additions in the same order as
        ``self.grad + grad``), and by the backward closures that take the
        array from :meth:`_writable_grad` (:meth:`gather_rows` and
        ``refine_layer``).
        """
        grad = np.asarray(grad, dtype=self.data.dtype)
        generation = _BACKWARD.generation
        if self.grad is None:
            if grad.base is not None or grad.flags.writeable is False:
                self.grad = grad.copy()
                self._grad_owner = generation
            else:
                self.grad = grad
                self._grad_owner = 0
        elif generation and self._grad_owner == generation and grad.shape == self.grad.shape:
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad
            self._grad_owner = generation

    def _writable_grad(self) -> Tuple[np.ndarray, bool]:
        """``self.grad`` as an array the running ``backward()`` owns.

        Returns ``(array, fresh)`` and makes the array ``self.grad``.  With
        no gradient yet it is a new, uninitialised array (``fresh``), so the
        caller's first contribution must be assigned rather than added.  A
        gradient the running pass does not own is copied first: it may be a
        first contribution another node holds too.
        """
        generation = _BACKWARD.generation
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            fresh = True
        else:
            fresh = False
            if not generation or self._grad_owner != generation:
                self.grad = self.grad.copy()
        self._grad_owner = generation
        return self.grad, fresh

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            ``1`` and therefore requires this tensor to be a scalar, matching
            the usual ``loss.backward()`` idiom.
        """
        if not self.requires_grad:
            raise RuntimeError("Called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited or not node.requires_grad:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        previous = _BACKWARD.generation
        _BACKWARD.generation = next(_GENERATIONS)
        try:
            self._accumulate(grad)
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        finally:
            _BACKWARD.generation = previous

    # ------------------------------------------------------------------ #
    # Element-wise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("Tensor exponents are not supported; use exp/log instead")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    # Comparison operators return plain boolean arrays (no gradient flows).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim else grad * other.data)
                else:
                    self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    other._accumulate(self.data.T @ grad)

        return Tensor._make(data, (self, other), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad_arr = np.asarray(grad)
            if axis is not None and not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis)
            self._accumulate(np.broadcast_to(grad_arr, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def norm(self, axis: Optional[int] = None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm along ``axis`` with a numerical floor to keep it differentiable at 0."""
        squared = (self * self).sum(axis=axis, keepdims=keepdims)
        return (squared + eps) ** 0.5

    # ------------------------------------------------------------------ #
    # Element-wise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return Tensor._make(data, (self,), backward)

    def softplus(self) -> "Tensor":
        """Numerically stable log(1 + exp(x))."""
        data = np.logaddexp(0.0, self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / (1.0 + np.exp(-self.data)))

        return Tensor._make(data, (self,), backward)

    def clip(self, min_value: Optional[float] = None, max_value: Optional[float] = None) -> "Tensor":
        data = np.clip(self.data, min_value, max_value)
        mask = np.ones_like(self.data)
        if min_value is not None:
            mask = mask * (self.data >= min_value)
        if max_value is not None:
            mask = mask * (self.data <= max_value)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Indexing / gathering
    # ------------------------------------------------------------------ #
    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Row lookup (embedding gather) with scatter-add gradient.

        Equivalent to ``self[indices]`` for a 1-D integer index array but kept
        as an explicit method because it is the hot path of every embedding
        model in the library.

        The backward sums each gathered row's gradients from zero, in index
        order, into a compact (unique rows, T) buffer, and adds that buffer
        into those rows of ``self.grad``: the IEEE additions of
        ``self.grad + scatter``, except that untouched rows skip a ``+ 0.0``.
        A first contribution is the scatter into zeros.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            rows, sums = _gathered_row_sums(indices % len(self.data), grad)
            sums = sums.reshape((rows.size,) + self.shape[1:])
            target, fresh = self._writable_grad()
            if fresh:
                target.fill(0.0)
                target[rows] = sums
            else:
                target[rows] += sums

        return Tensor._make(data, (self,), backward)


def _promote(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)
