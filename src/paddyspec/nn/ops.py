"""Forward and analytically-derived backward passes for the ResNet18 op set."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, Tensor, same_dtype


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Closed-form spatial size: floor((size + 2*padding - kernel)/stride) + 1."""
    if size + 2 * padding < kernel:
        raise ShapeError(
            f"conv window {kernel} exceeds padded extent {size + 2 * padding}")
    return (size + 2 * padding - kernel) // stride + 1


def _im2col(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(B, C, Hp, Wp) -> (B, Ho*Wo, C*kh*kw) patch matrix."""
    win = sliding_window_view(padded, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    b, c, ho, wo = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * kh * kw)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation over a zero-padded input.

    x: (B, C, H, W); weight: (O, C, kh, kw); bias: (O,) or None.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4D, got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d: weight must be 4D, got {weight.shape}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ShapeError(f"conv2d: padding must be non-negative, got {padding}")
    b, c, h, w = x.shape
    o, ci, kh, kw = weight.shape
    if c != ci:
        raise ShapeError(f"conv2d: input channels {c} != kernel in_channels {ci}")
    arrays = [x.data, weight.data] + ([bias.data] if bias is not None else [])
    same_dtype("conv2d", *arrays)

    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)

    if padding:
        padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        padded = x.data
    cols = _im2col(padded, kh, kw, stride)               # (B, HoWo, C*kh*kw)
    wmat = weight.data.reshape(o, -1)                    # (O, C*kh*kw)
    out = cols @ wmat.T                                  # (B, HoWo, O)
    if bias is not None:
        out += bias.data
    out = out.transpose(0, 2, 1).reshape(b, o, ho, wo)

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(b, o, ho * wo).transpose(0, 2, 1)   # (B, HoWo, O)
        if weight.requires_grad:
            gw = np.tensordot(g, cols, axes=([0, 1], [0, 1]))  # (O, C*kh*kw)
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gcols = g @ wmat                                  # (B, HoWo, C*kh*kw)
            gwin = gcols.reshape(b, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
            gpad = np.zeros_like(padded)
            for i in range(kh):
                for j in range(kw):
                    gpad[:, :, i:i + stride * ho:stride,
                         j:j + stride * wo:stride] += gwin[:, :, :, :, i, j]
            if padding:
                gpad = gpad[:, :, padding:padding + h, padding:padding + w]
            x._accumulate(gpad)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out, parents, backward, name="conv2d")


def maxpool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Max pooling; backward routes each gradient to its window's argmax."""
    if kernel < 1 or stride < 1:
        raise ShapeError(f"maxpool2d: kernel/stride must be positive, got {kernel}/{stride}")
    if padding < 0 or padding >= kernel:
        raise ShapeError(f"maxpool2d: padding {padding} must satisfy 0 <= padding < kernel")
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: input must be 4D, got {x.shape}")
    b, c, h, w = x.shape
    ho = conv_output_size(h, kernel, stride, padding)
    wo = conv_output_size(w, kernel, stride, padding)

    pad_val = -np.inf
    padded = np.full((b, c, h + 2 * padding, w + 2 * padding), pad_val, dtype=x.dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = x.data
    win = sliding_window_view(padded, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(b, c, ho, wo, kernel * kernel)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    if not np.isfinite(out).all():
        raise ShapeError("maxpool2d: a pooling window contained no input cells")

    di, dj = np.divmod(arg, kernel)
    oi = np.arange(ho)[:, None] * stride
    oj = np.arange(wo)[None, :] * stride
    src_i = oi[None, None] + di - padding                # unpadded row coords
    src_j = oj[None, None] + dj - padding
    bc = (np.arange(b)[:, None, None, None] * c + np.arange(c)[None, :, None, None])
    flat_idx = (bc * h + src_i) * w + src_j              # (B, C, Ho, Wo)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.bincount(flat_idx.ravel(), weights=grad.ravel(),
                             minlength=b * c * h * w)
            x._accumulate(gx.reshape(b, c, h, w).astype(x.dtype))

    return Tensor.from_op(out, (x,), backward, name="maxpool2d")


def global_avgpool(x: Tensor) -> Tensor:
    """Mean over the spatial plane: (B, C, H, W) -> (B, C)."""
    if x.ndim != 4:
        raise ShapeError(f"global_avgpool: input must be 4D, got {x.shape}")
    b, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = np.broadcast_to(grad[:, :, None, None] / (h * w), x.shape)
            x._accumulate(g.astype(x.dtype))

    return Tensor.from_op(out, (x,), backward, name="global_avgpool")


@dataclass
class BatchNormParams:
    """Learnable affine plus running statistics for one channel axis."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1
    initialized: bool = False

    @staticmethod
    def create(channels: int, eps: float = 1e-5, momentum: float = 0.1,
               dtype=np.float32) -> "BatchNormParams":
        return BatchNormParams(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            eps=eps,
            momentum=momentum,
        )


def batchnorm2d(x: Tensor, params: BatchNormParams, train: bool) -> Tensor:
    """Channel-wise normalization; batch statistics in train mode.

    Train mode normalizes by the population (biased) batch variance and
    blends running statistics with the configured momentum (running variance
    uses the unbiased estimate). Eval mode normalizes by running statistics.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d: input must be 4D, got {x.shape}")
    b, c, h, w = x.shape
    if params.gamma.shape != (c,):
        raise ShapeError(f"batchnorm2d: {c} channels vs {params.gamma.shape[0]} parameters")
    same_dtype("batchnorm2d", x.data, params.gamma.data, params.beta.data)
    gamma, beta = params.gamma, params.beta
    n = b * h * w

    if train:
        if n < 2:
            raise ShapeError(f"batchnorm2d: train mode needs B*H*W >= 2, got {n}")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))                     # biased
        m = params.momentum
        unbiased = var * (n / (n - 1))
        params.running_mean[...] = (1.0 - m) * params.running_mean + m * mean
        params.running_var[...] = (1.0 - m) * params.running_var + m * unbiased
        params.initialized = True
    else:
        if not params.initialized:
            raise ShapeError("batchnorm2d: eval mode before running statistics exist")
        mean = params.running_mean
        var = params.running_var

    inv_std = 1.0 / np.sqrt(var + params.eps)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((grad * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            scale = (gamma.data * inv_std)[None, :, None, None]
            if train:
                gmean = grad.mean(axis=(0, 2, 3))[None, :, None, None]
                gxhat = (grad * xhat).mean(axis=(0, 2, 3))[None, :, None, None]
                x._accumulate(scale * (grad - gmean - xhat * gxhat))
            else:
                x._accumulate(scale * grad)

    return Tensor.from_op(out, (x, gamma, beta), backward, name="batchnorm2d")


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    mask = x.data > 0
    out = np.where(mask, x.data, 0).astype(x.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor.from_op(out, (x,), backward, name="relu")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map: (B, F) @ (F, K) + (K,)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear: expected 2D input/weight, got {x.shape}/{weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear: input features {x.shape[1]} != weight rows {weight.shape[0]}")
    arrays = [x.data, weight.data] + ([bias.data] if bias is not None else [])
    same_dtype("linear", *arrays)
    out = x.data @ weight.data
    if bias is not None:
        if bias.shape != (weight.shape[1],):
            raise ShapeError(f"linear: bias shape {bias.shape} != ({weight.shape[1]},)")
        out = out + bias.data

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out, parents, backward, name="linear")


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (residual join)."""
    if x.shape != y.shape:
        raise ShapeError(f"add: shape mismatch {x.shape} vs {y.shape}")
    same_dtype("add", x.data, y.data)
    out = x.data + y.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad)
        if y.requires_grad:
            y._accumulate(grad)

    return Tensor.from_op(out, (x, y), backward, name="add")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for stability."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ShapeError(f"softmax: expected (B, K>=2) logits, got {x.shape}")
    out = np.exp(_log_softmax(x.data))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out).sum(axis=1, keepdims=True)
            x._accumulate(out * (grad - dot))

    return Tensor.from_op(out, (x,), backward, name="softmax")


def weighted_cross_entropy(logits: Tensor, labels: np.ndarray,
                           class_weights: np.ndarray) -> Tensor:
    """Class-weighted negative log likelihood, normalized by total sample weight.

    loss = sum_b w[y_b] * (-log softmax(logits_b)[y_b]) / sum_b w[y_b]
    """
    if logits.ndim != 2:
        raise ShapeError(f"weighted_cross_entropy: logits must be 2D, got {logits.shape}")
    b, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ShapeError(f"weighted_cross_entropy: labels shape {labels.shape} != ({b},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(
            f"weighted_cross_entropy: label out of range [0, {k}): {labels.min()}..{labels.max()}")
    weights = np.asarray(class_weights, dtype=logits.dtype)
    if weights.shape != (k,):
        raise ShapeError(f"weighted_cross_entropy: weights shape {weights.shape} != ({k},)")
    if (weights <= 0).any():
        raise ShapeError("weighted_cross_entropy: class weights must be positive")

    logp = _log_softmax(logits.data)
    rows = np.arange(b)
    wy = weights[labels]
    wsum = wy.sum()
    loss = -(wy * logp[rows, labels]).sum() / wsum
    out = np.asarray(loss, dtype=logits.dtype)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            p = np.exp(logp)
            d = p * wy[:, None]
            d[rows, labels] -= wy
            logits._accumulate(d * (float(grad) / wsum))

    return Tensor.from_op(out, (logits,), backward, name="weighted_cross_entropy")


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements (scalar), mainly for loss construction in tests."""
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.full(x.shape, float(grad), dtype=x.dtype))

    return Tensor.from_op(out, (x,), backward, name="sum")


def weighted_sum(x: Tensor, coeffs: np.ndarray) -> Tensor:
    """Scalar projection sum(x * coeffs) against a fixed coefficient array."""
    coeffs = np.asarray(coeffs, dtype=x.dtype)
    if coeffs.shape != x.shape:
        raise ShapeError(f"weighted_sum: coeffs shape {coeffs.shape} != {x.shape}")
    out = np.asarray((x.data * coeffs).sum(), dtype=x.dtype)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(coeffs * float(grad))

    return Tensor.from_op(out, (x,), backward, name="weighted_sum")
