"""ResNet18 classifier: 7x7/2 stem, four stages of two residual blocks
(widths 64/128/256/512, stride-2 entry with 1x1 projection from stage 2 on),
global average pooling, and a 3-way affine head. The stem accepts 3 channels
(RGB) or 4 (RGB+NDVI).

Every residual block computes relu(F(x) + shortcut(x)) with
F = conv-bn-relu-conv-bn. Every convolution is a `ConvBN` unit: it carries
no bias (batchnorm's shift makes it redundant). The head keeps one,
initialized to zero. The model's ordered unit list names every parameter
and checkpoint tensor by its layer path.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .nn import BatchNormParams, ShapeError, Tensor

STAGE_WIDTHS = (64, 128, 256, 512)
BLOCKS_PER_STAGE = 2


class ConvBN:
    """A bias-free He-initialized convolution followed by batchnorm.

    ``conv_name`` and ``bn_name`` are the layer paths its weight, affine and
    running statistics are stored under in a checkpoint. The weight has shape
    (O, C, kh, kw) and is stored (O, kh, kw, C)-contiguous, so it is
    ``conv2d``'s (O, kh*kw*C) weight matrix without a copy; its values,
    checkpoint shape and bytes do not depend on that layout.
    """

    def __init__(self, rng, conv_name: str, bn_name: str, in_ch: int, out_ch: int,
                 kernel: int, stride: int, padding: int, dtype):
        std = np.sqrt(2.0 / (in_ch * kernel * kernel))
        weight = rng.normal(0.0, std, size=(out_ch, in_ch, kernel, kernel))
        stored = np.empty((out_ch, kernel, kernel, in_ch), dtype=dtype).transpose(0, 3, 1, 2)
        stored[...] = weight
        self.weight = Tensor(stored, requires_grad=True)
        self.bn = BatchNormParams.create(out_ch, dtype=dtype)
        self.stride = stride
        self.padding = padding
        self.conv_name = conv_name
        self.bn_name = bn_name

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        out = nn.conv2d(x, self.weight, None, self.stride, self.padding)
        return nn.batchnorm2d(out, self.bn, train)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{self.conv_name}.weight", self.weight),
                (f"{self.bn_name}.gamma", self.bn.gamma),
                (f"{self.bn_name}.beta", self.bn.beta)]


class BasicBlock:
    """Two 3x3 conv-BN units with a residual join.

    The stage-entry block downsamples (stride 2) and projects the shortcut
    with a 1x1 conv-BN unit (``down``); otherwise the shortcut is the identity.
    """

    def __init__(self, rng, prefix: str, in_ch: int, out_ch: int, stride: int, dtype):
        self.conv1 = ConvBN(rng, f"{prefix}.conv1", f"{prefix}.bn1",
                            in_ch, out_ch, 3, stride, 1, dtype)
        self.conv2 = ConvBN(rng, f"{prefix}.conv2", f"{prefix}.bn2",
                            out_ch, out_ch, 3, 1, 1, dtype)
        self.down = None
        if stride != 1 or in_ch != out_ch:
            self.down = ConvBN(rng, f"{prefix}.down_conv", f"{prefix}.down_bn",
                               in_ch, out_ch, 1, stride, 0, dtype)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        out = self.conv2(nn.relu(self.conv1(x, train)), train)
        shortcut = x if self.down is None else self.down(x, train)
        return nn.relu(nn.add(out, shortcut))


class ResNet18:
    def __init__(self, in_channels: int = 3, num_classes: int = 3, seed: int = 0,
                 dtype=np.float32):
        if in_channels not in (3, 4):
            raise ShapeError(f"stem accepts 3 or 4 channels, got {in_channels}")
        if num_classes < 2:
            raise ShapeError(f"need at least 2 classes, got {num_classes}")
        self.in_channels = in_channels
        self.num_classes = num_classes
        self.dtype = np.dtype(dtype).type

        rng = np.random.default_rng(seed)
        self.stem = ConvBN(rng, "stem_conv", "stem_bn", in_channels, 64, 7, 2, 3, self.dtype)
        self.units: list[ConvBN] = [self.stem]
        self.stages: list[list[BasicBlock]] = []
        in_ch = 64
        for si, width in enumerate(STAGE_WIDTHS):
            blocks = []
            for bi in range(BLOCKS_PER_STAGE):
                stride = 2 if (si > 0 and bi == 0) else 1
                block = BasicBlock(rng, f"stage{si + 1}.{bi}", in_ch, width, stride,
                                   self.dtype)
                blocks.append(block)
                self.units += [u for u in (block.conv1, block.conv2, block.down) if u]
                in_ch = width
            self.stages.append(blocks)
        std = np.sqrt(2.0 / in_ch)
        weight = rng.normal(0.0, std, size=(in_ch, num_classes))
        self.head_weight = Tensor(weight.astype(self.dtype), requires_grad=True)
        self.head_bias = Tensor(np.zeros(num_classes, dtype=self.dtype), requires_grad=True)

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor, train: bool) -> Tensor:
        """Logits for a (B, C, H, W) batch; ``train`` selects batchnorm mode."""
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected (B, {self.in_channels}, H, W) input, got {x.shape}")
        out = nn.relu(self.stem(x, train))
        out = nn.maxpool2d(out, kernel=3, stride=2, padding=1)
        for blocks in self.stages:
            for block in blocks:
                out = block(out, train)
        out = nn.global_avgpool(out)
        return nn.linear(out, self.head_weight, self.head_bias)

    def predict_proba(self, x: Tensor) -> np.ndarray:
        """Eval-mode class probabilities, no tape recording."""
        with nn.no_grad():
            logits = self.forward(x, train=False)
            return nn.softmax(logits).data

    # -- parameters and checkpoint state ----------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params = [p for unit in self.units for p in unit.named_parameters()]
        return params + [("head.weight", self.head_weight), ("head.bias", self.head_bias)]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter, then every running statistic, keyed by layer path.

        The values are the model's own arrays, not copies.
        """
        state = {name: t.data for name, t in self.named_parameters()}
        for unit in self.units:
            state[f"{unit.bn_name}.running_mean"] = unit.bn.running_mean
            state[f"{unit.bn_name}.running_var"] = unit.bn.running_var
        return state

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy checkpoint tensors into the model in place; a missing tensor
        or one of the wrong shape raises ShapeError before any is copied."""
        state = self.state_arrays()
        missing = sorted(set(state) - set(arrays))
        if missing:
            raise ShapeError(f"checkpoint is missing tensors: {missing[:5]}")
        for name, dst in state.items():
            if arrays[name].shape != dst.shape:
                raise ShapeError(
                    f"{name}: checkpoint shape {arrays[name].shape} != {dst.shape}")
        for name, dst in state.items():
            dst[...] = arrays[name].astype(self.dtype)
        for unit in self.units:
            unit.bn.initialized = True


build_resnet18 = ResNet18
