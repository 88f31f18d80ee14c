"""ResNet18 classifier: 7x7/2 stem, four stages of two residual blocks
(widths 64/128/256/512, stride-2 entry with 1x1 projection from stage 2 on),
global average pooling, and a 3-way affine head. The stem accepts 3 channels
(RGB) or 4 (RGB+NDVI).

Every residual block computes relu(F(x) + shortcut(x)) with
F = conv-bn-relu-conv-bn. Convolutions carry no bias (batchnorm's shift
makes it redundant); the head keeps one, initialized to zero.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .nn import BatchNormParams, ShapeError, Tensor

STAGE_WIDTHS = (64, 128, 256, 512)
BLOCKS_PER_STAGE = 2


class Conv2dLayer:
    def __init__(self, rng, in_ch: int, out_ch: int, kernel: int, stride: int,
                 padding: int, dtype):
        fan_in = in_ch * kernel * kernel
        std = np.sqrt(2.0 / fan_in)
        weight = rng.normal(0.0, std, size=(out_ch, in_ch, kernel, kernel))
        self.weight = Tensor(weight.astype(dtype), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return nn.conv2d(x, self.weight, None, self.stride, self.padding)


class LinearLayer:
    def __init__(self, rng, in_features: int, out_features: int, dtype):
        std = np.sqrt(2.0 / in_features)
        weight = rng.normal(0.0, std, size=(in_features, out_features))
        self.weight = Tensor(weight.astype(dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return nn.linear(x, self.weight, self.bias)


class BasicBlock:
    """Two 3x3 convolutions with a residual join.

    The stage-entry block downsamples (stride 2) and projects the shortcut
    with a 1x1 convolution; otherwise the shortcut is the identity.
    """

    def __init__(self, rng, in_ch: int, out_ch: int, stride: int, dtype):
        self.conv1 = Conv2dLayer(rng, in_ch, out_ch, 3, stride, 1, dtype)
        self.bn1 = BatchNormParams.create(out_ch, dtype=dtype)
        self.conv2 = Conv2dLayer(rng, out_ch, out_ch, 3, 1, 1, dtype)
        self.bn2 = BatchNormParams.create(out_ch, dtype=dtype)
        if stride != 1 or in_ch != out_ch:
            self.down_conv = Conv2dLayer(rng, in_ch, out_ch, 1, stride, 0, dtype)
            self.down_bn = BatchNormParams.create(out_ch, dtype=dtype)
        else:
            self.down_conv = None
            self.down_bn = None

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        out = nn.relu(nn.batchnorm2d(self.conv1(x), self.bn1, train))
        out = nn.batchnorm2d(self.conv2(out), self.bn2, train)
        if self.down_conv is not None:
            shortcut = nn.batchnorm2d(self.down_conv(x), self.down_bn, train)
        else:
            shortcut = x
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
        self.seed = seed
        self.dtype = np.dtype(dtype).type

        rng = np.random.default_rng(seed)
        self.stem_conv = Conv2dLayer(rng, in_channels, 64, 7, 2, 3, self.dtype)
        self.stem_bn = BatchNormParams.create(64, dtype=self.dtype)
        self.stages: list[list[BasicBlock]] = []
        in_ch = 64
        for si, width in enumerate(STAGE_WIDTHS):
            blocks = []
            for bi in range(BLOCKS_PER_STAGE):
                stride = 2 if (si > 0 and bi == 0) else 1
                blocks.append(BasicBlock(rng, in_ch, width, stride, self.dtype))
                in_ch = width
            self.stages.append(blocks)
        self.head = LinearLayer(rng, STAGE_WIDTHS[-1], num_classes, self.dtype)

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor, train: bool,
                trace_shapes: list | None = None) -> Tensor:
        """Logits for a (B, C, H, W) batch; ``train`` selects batchnorm mode."""
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected (B, {self.in_channels}, H, W) input, got {x.shape}")

        def note(name, t):
            if trace_shapes is not None:
                trace_shapes.append((name, t.shape))

        out = nn.relu(nn.batchnorm2d(self.stem_conv(x), self.stem_bn, train))
        note("stem_conv", out)
        out = nn.maxpool2d(out, kernel=3, stride=2, padding=1)
        note("maxpool", out)
        for si, blocks in enumerate(self.stages):
            for block in blocks:
                out = block(out, train)
            note(f"stage{si + 1}", out)
        out = nn.global_avgpool(out)
        note("avgpool", out)
        logits = self.head(out)
        note("head", logits)
        return logits

    def predict_proba(self, x: Tensor) -> np.ndarray:
        """Eval-mode class probabilities, no tape recording."""
        with nn.no_grad():
            logits = self.forward(x, train=False)
            return nn.softmax(logits).data

    # -- parameter access --------------------------------------------------------

    def _bn_items(self):
        yield "stem_bn", self.stem_bn
        for si, blocks in enumerate(self.stages):
            for bi, block in enumerate(blocks):
                prefix = f"stage{si + 1}.{bi}"
                yield f"{prefix}.bn1", block.bn1
                yield f"{prefix}.bn2", block.bn2
                if block.down_bn is not None:
                    yield f"{prefix}.down_bn", block.down_bn

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params: list[tuple[str, Tensor]] = [("stem_conv.weight", self.stem_conv.weight)]
        params.append(("stem_bn.gamma", self.stem_bn.gamma))
        params.append(("stem_bn.beta", self.stem_bn.beta))
        for si, blocks in enumerate(self.stages):
            for bi, block in enumerate(blocks):
                prefix = f"stage{si + 1}.{bi}"
                params.append((f"{prefix}.conv1.weight", block.conv1.weight))
                params.append((f"{prefix}.bn1.gamma", block.bn1.gamma))
                params.append((f"{prefix}.bn1.beta", block.bn1.beta))
                params.append((f"{prefix}.conv2.weight", block.conv2.weight))
                params.append((f"{prefix}.bn2.gamma", block.bn2.gamma))
                params.append((f"{prefix}.bn2.beta", block.bn2.beta))
                if block.down_conv is not None:
                    params.append((f"{prefix}.down_conv.weight", block.down_conv.weight))
                    params.append((f"{prefix}.down_bn.gamma", block.down_bn.gamma))
                    params.append((f"{prefix}.down_bn.beta", block.down_bn.beta))
        params.append(("head.weight", self.head.weight))
        params.append(("head.bias", self.head.bias))
        return params

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def count_parameters(self) -> int:
        """Learnable scalars only; batchnorm running statistics excluded."""
        return sum(t.numel() for t in self.parameters())

    # -- checkpoint state ----------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {name: t.data for name, t in self.named_parameters()}
        for name, bn in self._bn_items():
            state[f"{name}.running_mean"] = bn.running_mean
            state[f"{name}.running_var"] = bn.running_var
        return state

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        expected = self.state_arrays()
        missing = sorted(set(expected) - set(arrays))
        if missing:
            raise ShapeError(f"checkpoint is missing tensors: {missing[:5]}")
        for name, t in self.named_parameters():
            src = arrays[name]
            if src.shape != t.data.shape:
                raise ShapeError(f"{name}: checkpoint shape {src.shape} != {t.data.shape}")
            t.data[...] = src.astype(self.dtype)
        for name, bn in self._bn_items():
            bn.running_mean[...] = arrays[f"{name}.running_mean"].astype(self.dtype)
            bn.running_var[...] = arrays[f"{name}.running_var"].astype(self.dtype)
            bn.initialized = True


def build_resnet18(in_channels: int = 3, num_classes: int = 3, seed: int = 0,
                   dtype=np.float32) -> ResNet18:
    return ResNet18(in_channels=in_channels, num_classes=num_classes,
                    seed=seed, dtype=dtype)
