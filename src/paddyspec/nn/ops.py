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


def _channels_last(a: np.ndarray) -> np.ndarray:
    """The (B, H, W, C) view of a (B, C, H, W) array; free for channels-last memory."""
    return a.transpose(0, 2, 3, 1)


def _nchw(a: np.ndarray) -> np.ndarray:
    """The (B, C, H, W) view of a (B, H, W, C) array: channels-last memory."""
    return a.transpose(0, 3, 1, 2)


def _patch_matrix(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """The (B*Ho*Wo, kh*kw*C) patch matrix of a (B, C, H, W) array: rows in
    (b, ho, wo) order, columns in (kh, kw, C) order, read from x's
    channels-last view after zero padding."""
    b, c = x.shape[:2]
    p = padding
    padded = _channels_last(x)
    if p:
        padded = np.pad(padded, ((0, 0), (p, p), (p, p), (0, 0)))
    win = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    ho, wo = win.shape[1:3]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(b * ho * wo, kh * kw * c)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation over a zero-padded input.

    x: (B, C, H, W); weight: (O, C, kh, kw); bias: (O,) or None. Shapes are
    NCHW/OIHW, memory may be any layout. The patch matrix is built in
    (kh, kw, C) order from the channels-last view of x, so an input stored
    (B, H, W, C)-contiguous is read in channel blocks, and other inputs cost
    one transposing copy. The patch matrix is dropped after the forward GEMM
    and rebuilt from x for the weight gradient, so no (B*Ho*Wo, kh*kw*C)
    array lives from forward to backward. A weight stored
    (O, kh, kw, C)-contiguous is its own (O, kh*kw*C) matrix; any other
    weight is copied into that order. The output, and the input gradient,
    are channels-last.
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
    p = padding

    wmat = _channels_last(weight.data).reshape(o, kh * kw * c)
    out = _patch_matrix(x.data, kh, kw, stride, p) @ wmat.T   # (B*Ho*Wo, O)
    if bias is not None:
        out += bias.data

    def backward(grad: np.ndarray) -> None:
        g = _channels_last(grad).reshape(b * ho * wo, o)
        if weight.requires_grad:
            cols = _patch_matrix(x.data, kh, kw, stride, p)
            weight._accumulate(_nchw((g.T @ cols).reshape(o, kh, kw, c)), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            gcols = (g @ wmat).reshape(b, ho, wo, kh, kw, c)
            gpad = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
            for i in range(kh):
                for j in range(kw):
                    gpad[:, i:i + stride * ho:stride,
                         j:j + stride * wo:stride] += gcols[:, :, :, i, j]
            x._accumulate(_nchw(gpad[:, p:p + h, p:p + w]))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(_nchw(out.reshape(b, ho, wo, o)), parents, backward,
                          name="conv2d")


def maxpool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Max pooling; backward routes each gradient to its window's argmax.

    A window's argmax is its first maximum in row-major tap order. Pools the
    channels-last view of x and returns channels-last memory.
    """
    if kernel < 1 or stride < 1:
        raise ShapeError(f"maxpool2d: kernel/stride must be positive, got {kernel}/{stride}")
    if padding < 0 or padding >= kernel:
        raise ShapeError(f"maxpool2d: padding {padding} must satisfy 0 <= padding < kernel")
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: input must be 4D, got {x.shape}")
    b, c, h, w = x.shape
    ho = conv_output_size(h, kernel, stride, padding)
    wo = conv_output_size(w, kernel, stride, padding)
    p = padding

    def tap(a: np.ndarray, k: int) -> np.ndarray:
        i, j = divmod(k, kernel)
        return a[:, i:i + stride * ho:stride, j:j + stride * wo:stride]

    hp, wp = h + 2 * p, w + 2 * p
    padded = np.full((b, hp, wp, c), -np.inf, dtype=x.dtype)
    padded[:, p:p + h, p:p + w] = _channels_last(x.data)
    out = tap(padded, 0).copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(kernel * kernel - 1))
    for k in range(1, kernel * kernel):
        v = tap(padded, k)
        arg = np.where(v > out, k, arg)                  # strict: the first max wins
        # on equal values np.maximum returns its second operand, so a tie
        # keeps the earlier tap's bits (+0.0 vs -0.0)
        np.maximum(v, out, out=out)
    if not np.isfinite(out).all():
        raise ShapeError("maxpool2d: a pooling window contained no input cells")

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            di, dj = np.divmod(arg, kernel)
            rows = np.arange(ho)[:, None, None] * stride + di
            cols = np.arange(wo)[:, None] * stride + dj
            flat = ((np.arange(b)[:, None, None, None] * hp + rows) * wp + cols) * c + np.arange(c)
            gpad = np.bincount(flat.ravel(), weights=_channels_last(grad).ravel(),
                               minlength=b * hp * wp * c).reshape(b, hp, wp, c)
            x._accumulate(_nchw(gpad[:, p:p + h, p:p + w]))

    return Tensor.from_op(_nchw(out), (x,), backward, name="maxpool2d")


def global_avgpool(x: Tensor) -> Tensor:
    """Mean over the spatial plane: (B, C, H, W) -> (B, C)."""
    if x.ndim != 4:
        raise ShapeError(f"global_avgpool: input must be 4D, got {x.shape}")
    b, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.broadcast_to(grad[:, :, None, None] / (h * w), x.shape))

    return Tensor.from_op(out, (x,), backward, name="global_avgpool")


BN_EPS = 1e-5


@dataclass
class BatchNormParams:
    """Learnable affine plus running statistics for one channel axis."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    initialized: bool = False

    @staticmethod
    def create(channels: int, dtype=np.float32) -> "BatchNormParams":
        return BatchNormParams(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


def batchnorm2d(x: Tensor, params: BatchNormParams, train: bool) -> Tensor:
    """Channel-wise normalization; batch statistics in train mode.

    Train mode normalizes by the population (biased) batch variance and
    blends running statistics with momentum 0.1 (running variance uses the
    unbiased estimate). Eval mode normalizes by running statistics.
    Works on the (B*H*W, C) view of x, a copy unless x is channels-last, and
    returns channels-last memory.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d: input must be 4D, got {x.shape}")
    b, c, h, w = x.shape
    if params.gamma.shape != (c,):
        raise ShapeError(f"batchnorm2d: {c} channels vs {params.gamma.shape[0]} parameters")
    same_dtype("batchnorm2d", x.data, params.gamma.data, params.beta.data)
    gamma, beta = params.gamma, params.beta
    n = b * h * w
    rows = _channels_last(x.data).reshape(n, c)

    if train:
        if n < 2:
            raise ShapeError(f"batchnorm2d: train mode needs B*H*W >= 2, got {n}")
        mean = rows.mean(axis=0)
        var = rows.var(axis=0)                               # biased
        m = 0.1
        unbiased = var * (n / (n - 1))
        params.running_mean[...] = (1.0 - m) * params.running_mean + m * mean
        params.running_var[...] = (1.0 - m) * params.running_var + m * unbiased
        params.initialized = True
    else:
        if not params.initialized:
            raise ShapeError("batchnorm2d: eval mode before running statistics exist")
        mean = params.running_mean
        var = params.running_var

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = rows - mean
    xhat *= inv_std
    out = xhat * gamma.data
    out += beta.data

    def backward(grad: np.ndarray) -> None:
        g = _channels_last(grad).reshape(n, c)
        g_xhat = g * xhat
        if gamma.requires_grad:
            gamma._accumulate(g_xhat.sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            scale = gamma.data * inv_std
            if train:
                gx = xhat * g_xhat.mean(axis=0)
                np.subtract(g, gx, out=gx)
                gx -= g.mean(axis=0)
                gx *= scale
            else:
                gx = g * scale
            x._accumulate(_nchw(gx.reshape(b, h, w, c)), owned=True)

    return Tensor.from_op(_nchw(out.reshape(b, h, w, c)), (x, gamma, beta), backward,
                          name="batchnorm2d")


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x), in x's memory layout."""
    out = np.maximum(x.data, 0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (out > 0), owned=True)

    return Tensor.from_op(out, (x,), backward, name="relu")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: (B, F) @ (F, K) + (K,)."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear: expected 2D input/weight, got {x.shape}/{weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear: input features {x.shape[1]} != weight rows {weight.shape[0]}")
    same_dtype("linear", x.data, weight.data, bias.data)
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: bias shape {bias.shape} != ({weight.shape[1]},)")
    out = x.data @ weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T)

    return Tensor.from_op(out, (x, weight, bias), backward, name="linear")


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
