"""LayerGCN: the paper's primary contribution.

The model combines three ingredients (Section III-B):

1. **Degree-sensitive edge dropout (DegreeDrop).**  At the start of every
   training epoch a fraction of edges is pruned from the interaction graph,
   keeping each edge with probability proportional to
   :math:`1/(\\sqrt{d_i}\\sqrt{d_j})` (Eq. 5).  Inference always uses the full
   graph.
2. **Layer-refined graph convolution (LayerGC).**  Each propagated layer is
   rescaled row-wise by its cosine similarity to the ego layer (Eq. 6-8),
   which amplifies hidden layers that agree with the node's own embedding and
   damps divergent ones.
3. **Ego-dropping sum readout.**  The final representation sums the refined
   hidden layers and *excludes* the ego layer (Eq. 9); prediction is the dot
   product of user and item final embeddings (Eq. 10) trained with BPR + L2
   (Eq. 11-12).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..engine import PropagationEngine
from ..data import DataSplit
from ..graph import EdgeDropout, build_edge_dropout, propagation_matrix
from ..models.graph_base import GraphRecommender
from .refinement import refine_layer, row_norms

__all__ = ["LayerGCN"]


class LayerGCN(GraphRecommender):
    """Layer-refined Graph Convolutional Network for recommendation.

    Parameters
    ----------
    split:
        Train/validation/test split to bind the model to.
    embedding_dim:
        Embedding size ``T`` (the paper fixes 64).
    num_layers:
        Number of propagation layers ``L`` (the paper fixes 4).
    l2_reg:
        Coefficient λ of the L2 regulariser on ego embeddings (Eq. 12).
    edge_dropout:
        One of ``"degreedrop"`` (paper default), ``"dropedge"``, ``"mixed"``
        or ``"none"``; the LayerGCN (w/o Dropout) variant of Table II uses
        ``"none"`` (equivalently ``dropout_ratio=0``).
    dropout_ratio:
        Fraction of edges pruned per epoch (the paper tunes in {0, 0.1, 0.2}).
    epsilon:
        The ε of Eq. 6 guarding against zero rows after refinement.
    """

    name = "layergcn"

    def __init__(
        self,
        split: DataSplit,
        embedding_dim: int = 64,
        num_layers: int = 4,
        l2_reg: float = 1e-3,
        edge_dropout: str = "degreedrop",
        dropout_ratio: float = 0.1,
        epsilon: float = 1e-8,
        batch_size: int = 1024,
        seed: int = 0,
    ) -> None:
        super().__init__(split, embedding_dim=embedding_dim, num_layers=num_layers,
                         l2_reg=l2_reg, batch_size=batch_size, seed=seed, self_loops=False)
        if num_layers < 1:
            raise ValueError("LayerGCN needs at least one propagation layer")
        self.epsilon = float(epsilon)
        self.dropout_ratio = float(dropout_ratio)
        self.edge_dropout_kind = edge_dropout if dropout_ratio > 0 else "none"
        self.edge_dropout: Optional[EdgeDropout] = build_edge_dropout(
            self.edge_dropout_kind, dropout_ratio, rng=self.rng)

        # Propagation matrix used during the current training epoch (pruned),
        # and the most recent per-layer mean similarities for Fig. 5.
        self._train_operator: Optional[PropagationEngine] = None
        self._last_layer_similarities: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Edge dropout (Section III-B-1)
    # ------------------------------------------------------------------ #
    def begin_epoch(self, epoch: int) -> None:
        """Resample the pruned propagation matrix :math:`\\hat{A}_p` for this epoch."""
        super().begin_epoch(epoch)
        if self.edge_dropout is None:
            self._train_operator = None
            return
        kept = self.edge_dropout.sample_edges(self.graph, epoch=epoch)
        pruned = propagation_matrix(
            self.graph,
            user_indices=self.graph.user_indices[kept],
            item_indices=self.graph.item_indices[kept],
            self_loops=False,
        )
        self._train_operator = PropagationEngine(pruned)

    def propagation_operator(self) -> PropagationEngine:
        """Pruned matrix during training; full graph at inference (Section III-B-1)."""
        if self.training and self._train_operator is not None:
            return self._train_operator
        return self.adjacency

    # ------------------------------------------------------------------ #
    # Layer-refined propagation (Section III-B-2)
    # ------------------------------------------------------------------ #
    def refined_layers(self) -> Tuple[List[Tensor], List[Tensor]]:
        """All refined hidden layers ``X^1..X^L`` and their similarity vectors."""
        operator = self.propagation_operator()
        ego = self.embeddings
        ego_norms = row_norms(ego.data)
        layers: List[Tensor] = []
        similarities: List[Tensor] = []
        current: Tensor = ego
        for _ in range(self.num_layers):
            propagated = operator.apply(current)
            refined, similarity = refine_layer(propagated, ego, eps=self.epsilon,
                                               ego_norms=ego_norms)
            layers.append(refined)
            similarities.append(similarity)
            current = refined
        return layers, similarities

    def propagate(self) -> Tensor:
        """Sum readout over refined hidden layers, ego layer excluded (Eq. 9)."""
        layers, similarities = self.refined_layers()
        self._last_layer_similarities = np.asarray(
            [float(similarity.data.mean()) for similarity in similarities])
        total = layers[0]
        for layer in layers[1:]:
            total = total + layer
        return total

    # ------------------------------------------------------------------ #
    # Introspection used by the figure experiments
    # ------------------------------------------------------------------ #
    def layer_similarity_values(self) -> Optional[np.ndarray]:
        """Mean refinement similarity per layer from the latest forward pass (Fig. 5)."""
        return self._last_layer_similarities
