"""NumPy-based reverse-mode autograd substrate.

This subpackage replaces PyTorch for the purposes of this reproduction: it
provides tensors with exact reverse-mode gradients, dense and sparse ops,
parameter containers, initialisers and optimisers.  See DESIGN.md for the
substitution rationale.
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from .module import Module, Parameter
from .optim import Adam, Optimizer, SGD
from . import functional
from . import init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Adam",
    "SGD",
    "Optimizer",
    "functional",
    "init",
]
