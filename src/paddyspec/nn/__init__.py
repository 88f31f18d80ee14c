"""Minimal dense-tensor engine: the exact op set ResNet18 needs, with
analytically implemented backward passes, a weighted cross-entropy loss, an
Adam optimizer and checkpoint I/O. The finite-difference checks of the
backward passes live in ``paddyspec.gradsuite``."""

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
from .serialize import CheckpointError, read_checkpoint, write_checkpoint

__all__ = [
    "Adam",
    "BackwardError",
    "BatchNormParams",
    "CheckpointError",
    "NonFiniteError",
    "ShapeError",
    "Tensor",
    "add",
    "batchnorm2d",
    "conv2d",
    "conv_output_size",
    "global_avgpool",
    "linear",
    "maxpool2d",
    "no_grad",
    "read_checkpoint",
    "relu",
    "softmax",
    "weighted_cross_entropy",
    "weighted_sum",
    "write_checkpoint",
]
