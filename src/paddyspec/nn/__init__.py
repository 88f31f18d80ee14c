"""Minimal dense-tensor engine: the exact op set ResNet18 needs, with
analytically implemented backward passes, a weighted cross-entropy loss,
and an Adam optimizer."""

from .tensor import (
    BackwardError,
    NonFiniteError,
    ShapeError,
    Tensor,
    no_grad,
)
from .ops import (
    BatchNormParams,
    add,
    batchnorm2d,
    conv2d,
    conv_output_size,
    global_avgpool,
    linear,
    maxpool2d,
    relu,
    softmax,
    weighted_cross_entropy,
    weighted_sum,
)
from .optim import Adam
from .gradcheck import DEFAULT_TOLERANCE, check_gradients, numeric_gradient, relative_error
from .serialize import CheckpointError, read_checkpoint, write_checkpoint

__all__ = [
    "Adam",
    "BackwardError",
    "BatchNormParams",
    "CheckpointError",
    "DEFAULT_TOLERANCE",
    "NonFiniteError",
    "ShapeError",
    "Tensor",
    "add",
    "batchnorm2d",
    "check_gradients",
    "conv2d",
    "conv_output_size",
    "global_avgpool",
    "linear",
    "maxpool2d",
    "no_grad",
    "numeric_gradient",
    "read_checkpoint",
    "relative_error",
    "relu",
    "softmax",
    "weighted_cross_entropy",
    "weighted_sum",
    "write_checkpoint",
]
