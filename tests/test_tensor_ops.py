"""Forward-pass behavior of the tensor engine's op set."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.lib.stride_tricks import sliding_window_view

from paddyspec import nn
from paddyspec.nn import Tensor
from paddyspec.nn.ops import BN_EPS, BatchNormParams, conv_output_size
from paddyspec.nn.tensor import ShapeError, same_dtype


def t64(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# -- reference ops: the NCHW implementations the channels-last ones replaced ------


def _im2col(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(B, C, Hp, Wp) -> (B, Ho*Wo, C*kh*kw) patch matrix."""
    win = sliding_window_view(padded, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    b, c, ho, wo = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * kh * kw)


def reference_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
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


def reference_maxpool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
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


def reference_batchnorm2d(x: Tensor, params: BatchNormParams, train: bool) -> Tensor:
    """Channel-wise normalization; batch statistics in train mode.

    Train mode normalizes by the population (biased) batch variance and
    blends running statistics with momentum 0.1 (running variance uses the
    unbiased estimate). Eval mode normalizes by running statistics.
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


class TestConv2d:
    def test_stem_shape(self):
        # (256 + 2*3 - 7) // 2 + 1 == 128
        x = Tensor(np.zeros((1, 3, 256, 256), dtype=np.float32))
        w = Tensor(np.zeros((64, 3, 7, 7), dtype=np.float32))
        out = nn.conv2d(x, w, None, stride=2, padding=3)
        assert out.shape == (1, 64, 128, 128)

    def test_identity_kernel(self):
        x = t64(np.ones((1, 1, 3, 3)))
        w = t64(np.ones((1, 1, 1, 1)))
        out = nn.conv2d(x, w, None, stride=1, padding=0)
        assert np.array_equal(out.data, x.data)

    def test_hand_dot_product(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = t64([[[[1.0, 0.0], [0.0, 1.0]]]])
        out = nn.conv2d(x, w, None, stride=1, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 5.0

    def test_bias_added(self):
        x = t64(np.zeros((2, 1, 4, 4)))
        w = t64(np.zeros((3, 1, 3, 3)))
        b = t64([1.0, -2.0, 0.5])
        out = nn.conv2d(x, w, b, stride=1, padding=1)
        assert np.allclose(out.data, b.data[None, :, None, None])

    def test_channel_mismatch_names_dimension(self):
        x = t64(np.zeros((1, 3, 8, 8)))
        w = t64(np.zeros((4, 2, 3, 3)))
        with pytest.raises(nn.ShapeError, match="channels 3 != kernel in_channels 2"):
            nn.conv2d(x, w, None)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        a = nn.conv2d(Tensor(x), Tensor(w), None, stride=2, padding=1).data
        b = nn.conv2d(Tensor(x.copy()), Tensor(w.copy()), None, stride=2, padding=1).data
        assert a.tobytes() == b.tobytes()

    @given(h=st.integers(1, 40), k=st.integers(1, 7), s=st.integers(1, 3),
           p=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_shape_formula_matches_enumeration(self, h, k, s, p):
        if h + 2 * p < k:
            with pytest.raises(nn.ShapeError):
                nn.conv_output_size(h, k, s, p)
            return
        # independent oracle: count valid window origins explicitly
        expected = len(range(0, h + 2 * p - k + 1, s))
        assert nn.conv_output_size(h, k, s, p) == expected
        x = Tensor(np.zeros((1, 1, h, h), dtype=np.float64))
        w = Tensor(np.zeros((1, 1, k, k), dtype=np.float64))
        out = nn.conv2d(x, w, None, stride=s, padding=p)
        assert out.shape == (1, 1, expected, expected)


class TestMaxPool:
    def test_stem_pool_shape(self):
        x = Tensor(np.zeros((1, 64, 128, 128), dtype=np.float32))
        out = nn.maxpool2d(x, kernel=3, stride=2, padding=1)
        assert out.shape == (1, 64, 64, 64)

    def test_constant_input(self):
        x = t64(np.full((1, 2, 8, 8), 3.5))
        out = nn.maxpool2d(x, kernel=3, stride=2, padding=1)
        assert np.all(out.data == 3.5)

    def test_small_window_max(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = nn.maxpool2d(x, kernel=2, stride=1, padding=0)
        assert out.data.reshape(()) == 4.0

    def test_rejects_bad_kernel(self):
        x = t64(np.zeros((1, 1, 4, 4)))
        with pytest.raises(nn.ShapeError):
            nn.maxpool2d(x, kernel=0, stride=1)
        with pytest.raises(nn.ShapeError):
            nn.maxpool2d(x, kernel=2, stride=0)

    @given(h=st.integers(2, 24), k=st.integers(1, 4), s=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_window_max(self, h, k, s):
        if h < k:
            return
        rng = np.random.default_rng(h * 100 + k * 10 + s)
        x = rng.standard_normal((1, 1, h, h))
        out = nn.maxpool2d(Tensor(x), kernel=k, stride=s, padding=0).data[0, 0]
        ho = nn.conv_output_size(h, k, s, 0)
        naive = np.empty((ho, ho))
        for i in range(ho):
            for j in range(ho):
                naive[i, j] = x[0, 0, i * s:i * s + k, j * s:j * s + k].max()
        assert np.array_equal(out, naive)


class TestGlobalAvgPool:
    def test_resnet_tail_shape(self):
        x = Tensor(np.zeros((1, 512, 8, 8), dtype=np.float32))
        assert nn.global_avgpool(x).shape == (1, 512)

    def test_constant_plane(self):
        x = t64(np.full((1, 1, 5, 7), 2.0))
        assert nn.global_avgpool(x).data[0, 0] == 2.0

    def test_arithmetic_mean(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert nn.global_avgpool(x).data[0, 0] == 2.5


class TestBatchNorm:
    def test_normalization_fixed_point(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 2, 4, 4))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        params = nn.BatchNormParams.create(2, dtype=np.float64)
        out = nn.batchnorm2d(Tensor(x), params, train=True)
        assert np.allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        params = nn.BatchNormParams.create(3, dtype=np.float64)
        params.gamma.data[...] = 0.0
        params.beta.data[...] = np.array([1.0, -2.0, 0.25])
        x = t64(np.random.default_rng(0).standard_normal((4, 3, 2, 2)))
        out = nn.batchnorm2d(x, params, train=True)
        assert np.allclose(out.data, params.beta.data[None, :, None, None])

    def test_two_point_batch_normalizes_to_unit(self):
        # batch {1, 3}: mean 2, population std 1 -> {-1, +1} / sqrt(1 + eps)
        params = nn.BatchNormParams.create(1, dtype=np.float64)
        x = t64(np.array([1.0, 3.0]).reshape(2, 1, 1, 1))
        out = nn.batchnorm2d(x, params, train=True)
        unit = 1.0 / math.sqrt(1.0 + BN_EPS)
        assert np.allclose(out.data.ravel(), [-unit, unit], rtol=0, atol=1e-12)

    def test_eval_before_train_errors(self):
        params = nn.BatchNormParams.create(2, dtype=np.float64)
        x = t64(np.zeros((1, 2, 2, 2)))
        with pytest.raises(nn.ShapeError, match="running statistics"):
            nn.batchnorm2d(x, params, train=False)

    def test_eval_uses_running_stats(self):
        params = nn.BatchNormParams.create(1, dtype=np.float64)
        rng = np.random.default_rng(5)
        for _ in range(50):
            nn.batchnorm2d(t64(rng.standard_normal((16, 1, 4, 4)) * 2.0 + 1.0),
                           params, train=True)
        assert abs(params.running_mean[0] - 1.0) < 0.2
        assert abs(params.running_var[0] - 4.0) < 0.8
        x = t64(np.full((1, 1, 2, 2), 1.0))
        out = nn.batchnorm2d(x, params, train=False)
        expected = (1.0 - params.running_mean[0]) / math.sqrt(params.running_var[0] + 1e-5)
        assert np.allclose(out.data, expected)


class TestReluLinearSoftmax:
    def test_relu_definition(self):
        out = nn.relu(t64([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_all_negative(self):
        assert np.all(nn.relu(t64([-5.0, -0.1, -2.0])).data == 0.0)

    def test_relu_identity_on_nonnegative(self):
        x = np.array([0.0, 0.5, 7.0])
        assert np.array_equal(nn.relu(t64(x)).data, x)

    def test_linear_identity_weight(self):
        x = t64([[1.0, 2.0, 3.0]])
        w = t64(np.eye(3))
        out = nn.linear(x, w, t64(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_linear_zero_weight_bias_rows(self):
        x = t64(np.random.default_rng(1).standard_normal((4, 5)))
        w = t64(np.zeros((5, 3)))
        b = t64([1.0, 2.0, 3.0])
        out = nn.linear(x, w, b)
        assert np.allclose(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_linear_hand_product(self):
        x = t64([[1.0, 2.0]])
        w = t64(np.eye(2))
        b = t64([0.5, -0.5])
        out = nn.linear(x, w, b)
        assert np.allclose(out.data, [[1.5, 1.5]])

    def test_linear_dimension_mismatch(self):
        with pytest.raises(nn.ShapeError, match="features 3 != weight rows 2"):
            nn.linear(t64(np.zeros((1, 3))), t64(np.zeros((2, 4))), t64(np.zeros(4)))

    def test_softmax_symmetry(self):
        out = nn.softmax(t64([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, [[1 / 3] * 3])

    def test_softmax_large_logit_no_overflow(self):
        out = nn.softmax(t64([[1000.0, 0.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert np.allclose(out.data, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_softmax_closed_form(self):
        out = nn.softmax(t64([[math.log(2.0), 0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.25, 0.25]], atol=1e-12)

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
                    min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_softmax_rows_sum_to_one_and_shift_invariant(self, rows, shift):
        logits = np.asarray(rows, dtype=np.float64)
        s1 = nn.softmax(t64(logits)).data
        s2 = nn.softmax(t64(logits + shift)).data
        assert np.all(np.abs(s1.sum(axis=1) - 1.0) < 1e-6)
        assert np.all(s1 >= 0.0)
        assert np.all(np.abs(s1 - s2) < 1e-6)


class TestWeightedCrossEntropy:
    def test_uniform_logits(self):
        logits = t64(np.zeros((1, 3)))
        loss = nn.weighted_cross_entropy(logits, np.array([1]), np.ones(3))
        assert abs(loss.item() - math.log(3.0)) < 1e-12

    def test_confident_correct_drives_loss_to_zero(self):
        losses = []
        for margin in (5.0, 20.0, 80.0):
            logits = t64([[margin, 0.0, 0.0]])
            losses.append(nn.weighted_cross_entropy(logits, np.array([0]), np.ones(3)).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

    def test_weighted_mean_normalization(self):
        # weights {1,3} on labels {0,2}: (1*ln3 + 3*ln3)/(1+3) == ln3
        logits = t64(np.zeros((2, 3)))
        loss = nn.weighted_cross_entropy(logits, np.array([0, 2]),
                                         np.array([1.0, 2.0, 3.0]))
        assert abs(loss.item() - math.log(3.0)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(nn.ShapeError, match="label out of range"):
            nn.weighted_cross_entropy(t64(np.zeros((1, 3))), np.array([3]), np.ones(3))

    def test_unit_weights_equal_unweighted_exactly(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        loss = nn.weighted_cross_entropy(t64(logits), labels, np.ones(3)).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        unweighted = -logp[np.arange(6), labels].sum() / 6.0
        assert loss == unweighted

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_equal_weights_match_unweighted(self, w):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        weighted = nn.weighted_cross_entropy(t64(logits), labels, np.full(3, w)).item()
        unit = nn.weighted_cross_entropy(t64(logits), labels, np.ones(3)).item()
        assert abs(weighted - unit) < 1e-12


class TestStrictFinite:
    def test_nan_raises(self):
        x = t64([[1.0, float("nan")]])
        with pytest.raises(nn.NonFiniteError):
            nn.add(x, x)


class TestPrecisionModes:
    def test_mixed_precision_rejected(self):
        x = Tensor(np.zeros((1, 2), dtype=np.float32))
        w = Tensor(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(nn.ShapeError, match="mixed precision"):
            nn.linear(x, w, Tensor(np.zeros(2, dtype=np.float64)))

    def test_dtype_preserved(self):
        for dtype in (np.float32, np.float64):
            x = Tensor(np.zeros((1, 1, 4, 4), dtype=dtype))
            w = Tensor(np.zeros((2, 1, 3, 3), dtype=dtype))
            assert nn.conv2d(x, w, None, padding=1).dtype == dtype


# -- old-vs-new oracle: the channels-last ops against the references above -------

# max |new - reference| as a share of max |reference|, per dtype
ORACLE_BOUND = {np.float32: 1e-5, np.float64: 1e-12}


def stored(a: np.ndarray, channels_last: bool) -> np.ndarray:
    """*a* with its (B, C, H, W) shape, stored NCHW or (B, H, W, C)-contiguous."""
    if not channels_last:
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def assert_close(new: np.ndarray, ref: np.ndarray, dtype) -> None:
    assert new.shape == ref.shape and new.dtype == ref.dtype
    scale = max(float(np.abs(ref).max()), np.finfo(dtype).tiny)
    assert float(np.abs(new - ref).max()) <= ORACLE_BOUND[dtype] * scale


def run_op(op, data: dict, coeffs: np.ndarray, call) -> tuple:
    """Forward and backward of ``call(op, tensors)`` against fixed upstream
    coefficients, from fresh tensors; returns (output, {name: grad})."""
    tensors = {k: Tensor(v.copy(order="K"), requires_grad=True) for k, v in data.items()}
    out = call(op, tensors)
    nn.weighted_sum(out, coeffs).backward()
    return out.data, {k: t.grad for k, t in tensors.items()}


class TestChannelsLastOracle:
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           b=st.integers(1, 3), c=st.integers(1, 5), o=st.integers(1, 5),
           size=st.integers(1, 11), kernel=st.sampled_from([1, 3, 7]),
           stride=st.sampled_from([1, 2]), pad_share=st.integers(0, 3),
           x_cl=st.booleans(), g_cl=st.booleans(), w_cl=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_conv2d(self, dtype, b, c, o, size, kernel, stride, pad_share,
                    x_cl, g_cl, w_cl, seed):
        padding = min(pad_share, kernel // 2)
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        ho = conv_output_size(size, kernel, stride, padding)
        data = {"x": stored(rng.standard_normal((b, c, size, size)).astype(dtype), x_cl),
                "w": stored(rng.standard_normal((o, c, kernel, kernel)).astype(dtype), w_cl),
                "b": rng.standard_normal(o).astype(dtype)}
        coeffs = stored(rng.standard_normal((b, o, ho, ho)).astype(dtype), g_cl)

        def call(op, t):
            return op(t["x"], t["w"], t["b"], stride, padding)

        out, grads = run_op(nn.conv2d, data, coeffs, call)
        ref_out, ref_grads = run_op(reference_conv2d, data, coeffs, call)
        assert_close(out, ref_out, dtype)
        for name in data:
            assert_close(grads[name], ref_grads[name], dtype)

    @given(dtype=st.sampled_from([np.float32, np.float64]), train=st.booleans(),
           b=st.integers(1, 4), c=st.integers(1, 6), size=st.integers(1, 9),
           x_cl=st.booleans(), g_cl=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_batchnorm2d(self, dtype, train, b, c, size, x_cl, g_cl, seed):
        if train and b * size * size < 2:
            return
        rng = np.random.default_rng(seed)
        shape = (b, c, size, size)
        data = {"x": stored(rng.standard_normal(shape).astype(dtype) * 3 + 1, x_cl),
                "gamma": rng.uniform(0.5, 1.5, c).astype(dtype),
                "beta": rng.standard_normal(c).astype(dtype)}
        coeffs = stored(rng.standard_normal(shape).astype(dtype), g_cl)
        running = (rng.standard_normal(c).astype(dtype),
                    rng.uniform(0.5, 2.0, c).astype(dtype))
        stats = {}

        def call(op, t):
            params = BatchNormParams(gamma=t["gamma"], beta=t["beta"],
                                     running_mean=running[0].copy(),
                                     running_var=running[1].copy(), initialized=True)
            stats[op] = params
            return op(t["x"], params, train)

        out, grads = run_op(nn.batchnorm2d, data, coeffs, call)
        ref_out, ref_grads = run_op(reference_batchnorm2d, data, coeffs, call)
        assert_close(out, ref_out, dtype)
        for name in data:
            assert_close(grads[name], ref_grads[name], dtype)
        new, ref = stats[nn.batchnorm2d], stats[reference_batchnorm2d]
        assert_close(new.running_mean, ref.running_mean, dtype)
        assert_close(new.running_var, ref.running_var, dtype)

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           b=st.integers(1, 3), c=st.integers(1, 5), size=st.integers(1, 12),
           kernel=st.integers(1, 4), stride=st.integers(1, 3), pad_share=st.integers(0, 3),
           x_cl=st.booleans(), g_cl=st.booleans(), ties=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_maxpool2d(self, dtype, b, c, size, kernel, stride, pad_share,
                       x_cl, g_cl, ties, seed):
        padding = min(pad_share, kernel - 1)
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, c, size, size))
        if ties:                                 # exercise the first-max tie-break
            x = np.round(x)
        ho = conv_output_size(size, kernel, stride, padding)
        data = {"x": stored(x.astype(dtype), x_cl)}
        coeffs = stored(rng.standard_normal((b, c, ho, ho)).astype(dtype), g_cl)

        def call(op, t):
            return op(t["x"], kernel, stride, padding)

        out, grads = run_op(nn.maxpool2d, data, coeffs, call)
        ref_out, ref_grads = run_op(reference_maxpool2d, data, coeffs, call)
        assert out.tobytes(order="C") == ref_out.tobytes(order="C")
        assert_close(grads["x"], ref_grads["x"], dtype)
