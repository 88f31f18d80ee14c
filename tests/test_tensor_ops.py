"""Forward-pass behavior of the tensor engine's op set."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddyspec import nn
from paddyspec.nn import Tensor


def t64(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


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
        # batch {1, 3}: mean 2, population std 1 -> {-1, +1}
        params = nn.BatchNormParams.create(1, eps=1e-14, dtype=np.float64)
        x = t64(np.array([1.0, 3.0]).reshape(2, 1, 1, 1))
        out = nn.batchnorm2d(x, params, train=True)
        assert np.allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-6)

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
        out = nn.linear(x, w, None)
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
            nn.linear(t64(np.zeros((1, 3))), t64(np.zeros((2, 4))), None)

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
            nn.linear(x, w, None)

    def test_dtype_preserved(self):
        for dtype in (np.float32, np.float64):
            x = Tensor(np.zeros((1, 1, 4, 4), dtype=dtype))
            w = Tensor(np.zeros((2, 1, 3, 3), dtype=dtype))
            assert nn.conv2d(x, w, None, padding=1).dtype == dtype
