"""Layer-refinement operator (Section III-B-2 of the paper).

After each propagation step the hidden layer is rescaled row-by-row with its
cosine similarity to the ego layer:

.. math::

    \\tilde{X}^{l+1} = \\hat{A}_p X^{l}                         \\\\
    X^{l+1} = (a^{l+1} + \\epsilon) \\tilde{X}^{l+1},\\qquad
    a^{l+1} = \\mathrm{SIM}(\\tilde{X}^{l+1}, X^0)               (Eq.~6\\text{–}8)

so hidden layers that agree with the node's ego representation are amplified
and divergent layers are damped, which is the mechanism Proposition 2 uses to
bound the drift from the ego embedding.

:func:`refine_layer` is one autograd node.  Its forward and backward perform
the same floating-point operations, in the same order, as the composition
``scale_rows(hidden, row_cosine_similarity(hidden, ego, eps) + eps)`` of
:mod:`repro.autograd.functional` (norms as :meth:`Tensor.norm` computes them,
the denominator floored by ``clip``), so results are bit-identical to that
chain.  Besides the two input layers, the backward keeps only (N, 1)
columns: both layers' norms, the dot products, the norm product, the floored
denominator and the row weights.  Both passes run their (N, T) products on
one block of :data:`~repro.autograd.tensor.ROW_BLOCK` rows at a time, into a
block-sized scratch array and outputs allocated once per call; the ego
layer's gradient terms are added into a gradient array the running
``backward()`` owns.  Each op is elementwise or a per-row sum, so a block
goes through the same IEEE operations as the whole matrix.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.functional import row_cosine_similarity
from ..autograd.tensor import ROW_BLOCK, row_blocks

__all__ = ["RowNorms", "refine_layer", "refinement_similarity", "row_norms"]

#: The floor :meth:`Tensor.norm` adds under the square root.
_NORM_FLOOR = 1e-12


class RowNorms(NamedTuple):
    """Row norms of an (N, T) matrix, each of shape (N, 1).

    ``norm`` is ``(Σ x² + 1e-12)^½`` as :meth:`Tensor.norm` computes it, and
    ``rsqrt`` is ``(Σ x² + 1e-12)^-½``, the factor its backward uses.
    """

    norm: np.ndarray
    rsqrt: np.ndarray


def _row_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``(left * right).sum(axis=1, keepdims=True)``, one row block at a time."""
    dots = np.empty((left.shape[0], 1), dtype=left.dtype)
    scratch = np.empty((min(ROW_BLOCK, left.shape[0]),) + left.shape[1:], dtype=left.dtype)
    for rows in row_blocks(left.shape[0]):
        block = left[rows]
        product = np.multiply(block, right[rows], out=scratch[:len(block)])
        product.sum(axis=1, keepdims=True, out=dots[rows])
    return dots


def row_norms(matrix: np.ndarray) -> RowNorms:
    """Row norms of ``matrix`` for :func:`refine_layer`."""
    squared = _row_dots(matrix, matrix) + _NORM_FLOOR
    return RowNorms(squared ** 0.5, squared ** -0.5)


def refinement_similarity(hidden: Tensor, ego: Tensor, eps: float = 1e-8) -> Tensor:
    """Per-node cosine similarity ``a^{l+1} = SIM(X^{l+1}, X^0)`` (Eq. 7-8)."""
    return row_cosine_similarity(hidden, ego, eps=eps)


def refine_layer(hidden: Tensor, ego: Tensor, eps: float = 1e-8,
                 ego_norms: Optional[RowNorms] = None) -> Tuple[Tensor, Tensor]:
    """Apply the layer refinement of Eq. 6 and return (refined layer, similarities).

    Parameters
    ----------
    hidden:
        The freshly propagated layer :math:`\\tilde{X}^{l+1}` of shape (N, T).
    ego:
        The ego layer :math:`X^0` of shape (N, T).
    eps:
        The small positive constant added to the similarity so refined rows
        can never become exactly zero (the ε of Eq. 6).  It also floors the
        norm product in the similarity's denominator (Eq. 8).
    ego_norms:
        ``row_norms(ego.data)``, when the caller refines several layers
        against the same ego layer; computed here when omitted.

    Returns
    -------
    refined:
        :math:`(a^{l+1} + \\epsilon)\\,\\tilde{X}^{l+1}`, differentiable with
        respect to both ``hidden`` and ``ego``.
    similarity:
        The similarity vector ``a^{l+1}`` (shape (N, 1)), detached from the
        graph; useful for the Fig. 5 visualisation and for tests of
        Proposition 2.  :func:`refinement_similarity` is the differentiable
        form.
    """
    h, e = hidden.data, ego.data
    if ego_norms is None:
        ego_norms = row_norms(e)
    hidden_norms = row_norms(h)
    dot = _row_dots(h, e)
    norm_product = hidden_norms.norm * ego_norms.norm
    denom = np.clip(norm_product, eps, None)
    similarity = dot / denom
    weight = similarity + eps

    def backward(grad: np.ndarray) -> None:
        # Reverse order of the chain: scale_rows, the quotient, the clip,
        # the norm product, then each norm's power and square-sum.
        grad_weight = _row_dots(grad, h)
        grad_dot = grad_weight / denom
        grad_norm_product = (-grad_weight * dot / denom ** 2) * (norm_product >= eps)
        # Each parent gets its terms as separate additions in the chain's
        # order: (g + t) + t is not g + 2t in floating point.
        scratch = np.empty((min(ROW_BLOCK, h.shape[0]),) + h.shape[1:], dtype=h.dtype)
        if hidden.requires_grad:
            grad_squared = grad_norm_product * ego_norms.norm * 0.5 * hidden_norms.rsqrt
            grad_hidden = np.empty_like(h)
            for rows in row_blocks(h.shape[0]):
                out = grad_hidden[rows]
                term = scratch[:len(out)]
                np.multiply(grad[rows], weight[rows], out=out)
                np.multiply(grad_squared[rows], h[rows], out=term)
                out += term
                out += term
                out += np.multiply(grad_dot[rows], e[rows], out=term)
            hidden._accumulate(grad_hidden)
        if ego.requires_grad:
            grad_squared = grad_norm_product * hidden_norms.norm * 0.5 * ego_norms.rsqrt
            grad_ego, fresh = ego._writable_grad()
            for rows in row_blocks(h.shape[0]):
                out = grad_ego[rows]
                term = np.multiply(grad_squared[rows], e[rows], out=scratch[:len(out)])
                if fresh:
                    out[...] = term
                else:
                    out += term
                out += term
                out += np.multiply(grad_dot[rows], h[rows], out=term)

    refined = Tensor._make(h * weight, (hidden, ego), backward)
    return refined, Tensor(similarity)
