"""Analytic backward passes checked against central finite differences.

All checks run in float64. The bound is max relative error < 1e-4 with
relative error |a-b| / max(|a|, |b|, 1e-8).
"""
import weakref

import numpy as np
import pytest

from paddyspec import nn
from paddyspec.model import build_resnet18
from paddyspec.nn import Tensor, ops

TOL = nn.DEFAULT_TOLERANCE
N_TRIALS = 20


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_dead_relu_gradient_is_zero():
    x = Tensor(-np.abs(np.random.default_rng(1).standard_normal((2, 5))) - 0.1,
               requires_grad=True)
    nn.weighted_sum(nn.relu(x), np.ones(x.shape)).backward()
    assert np.all(x.grad == 0.0)


def test_backward_before_forward_errors():
    x = Tensor(np.zeros(3), requires_grad=True)
    scalar = Tensor(np.asarray(1.0), requires_grad=True)
    with pytest.raises(nn.BackwardError):
        scalar.backward()
    with pytest.raises(nn.ShapeError):
        x.backward()  # non-scalar


def test_gradients_accumulate_across_shared_use():
    x = Tensor(np.ones(4), requires_grad=True)
    nn.weighted_sum(nn.add(x, x), np.ones(x.shape)).backward()
    assert np.array_equal(x.grad, np.full(4, 2.0))


def test_backward_releases_the_tape(monkeypatch):
    """backward() frees the activations and patch matrices a forward made
    while the loss and logits are still bound; the parameters keep their
    gradients, and a second backward through the released tape raises."""
    conv_outs, patches = [], []
    conv2d, patch_matrix = nn.conv2d, ops._patch_matrix

    def traced_conv(*args):
        out = conv2d(*args)
        conv_outs.append(weakref.ref(out.data))
        return out

    def traced_patches(*args):
        cols = patch_matrix(*args)
        patches.append(weakref.ref(cols))
        return cols

    monkeypatch.setattr(nn, "conv2d", traced_conv)
    monkeypatch.setattr(ops, "_patch_matrix", traced_patches)
    model = build_resnet18(in_channels=4, seed=0)
    x = np.random.default_rng(4).standard_normal((2, 4, 32, 32)).astype(np.float32)
    logits = model.forward(Tensor(x), train=True)
    loss = nn.weighted_cross_entropy(logits, np.array([0, 2]), np.ones(3))
    assert len(conv_outs) == len(patches) == 20
    assert all(ref() is not None for ref in conv_outs)
    loss.backward()

    assert len(patches) == 40                   # rebuilt once per conv in backward
    assert all(ref() is None for ref in conv_outs)
    assert all(ref() is None for ref in patches)
    for name, param in model.named_parameters():
        assert param.grad is not None, name
    with pytest.raises(nn.BackwardError, match="released"):
        loss.backward()


def test_adopted_gradient_takes_a_second_contribution():
    # each relu hands x a fresh masked gradient: the first is adopted, the
    # second is added into it
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    coeffs = rng.standard_normal(x.shape)
    nn.weighted_sum(nn.add(nn.relu(x), nn.relu(x)), coeffs).backward()
    assert np.array_equal(x.grad, 2.0 * (coeffs * (x.data > 0)))


def test_weight_shared_by_two_convolutions():
    rng = np.random.default_rng(13)
    x1, x2 = rand(rng, 2, 3, 6, 6), rand(rng, 2, 3, 6, 6)
    w = rand(rng, 4, 3, 3, 3)
    coeffs = rng.standard_normal((2, 4, 6, 6))

    def loss_fn():
        return nn.weighted_sum(nn.add(nn.conv2d(x1, w, None, 1, 1),
                                      nn.conv2d(x2, w, None, 1, 1)), coeffs)

    assert nn.check_gradients(loss_fn, {"x1": x1, "x2": x2, "w": w}, rng=rng) < TOL
    w.zero_grad()
    loss_fn().backward()
    separate = []
    for xi in (x1, x2):
        wi = Tensor(w.data, requires_grad=True)
        nn.weighted_sum(nn.conv2d(xi, wi, None, 1, 1), coeffs).backward()
        separate.append(wi.grad)
    assert np.array_equal(w.grad, separate[0] + separate[1])


@pytest.mark.parametrize("stride,padding,kernel,bias", [
    (1, 0, 3, True),
    (1, 1, 3, False),
    (2, 3, 7, False),
    (2, 0, 1, True),
])
def test_conv2d_gradcheck(stride, padding, kernel, bias):
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(1000 + trial)
        h = kernel + rng.integers(2, 6)
        x = rand(rng, 2, 3, h, h)
        w = rand(rng, 4, 3, kernel, kernel)
        b = rand(rng, 4) if bias else None
        coeffs_shape = nn.conv2d(x.detach(), w.detach(), None if b is None else b.detach(),
                                 stride, padding).shape
        coeffs = rng.standard_normal(coeffs_shape)
        tensors = {"x": x, "w": w}
        if b is not None:
            tensors["b"] = b

        def loss_fn():
            return nn.weighted_sum(nn.conv2d(x, w, b, stride, padding), coeffs)

        worst = max(worst, nn.check_gradients(loss_fn, tensors,
                                              max_coords_per_tensor=24, rng=rng))
    assert worst < TOL, f"conv2d max relative error {worst:.3e}"


def test_maxpool_gradcheck():
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(2000 + trial)
        x = rand(rng, 2, 2, 7, 7)
        coeffs = rng.standard_normal((2, 2, 4, 4))

        def loss_fn():
            return nn.weighted_sum(nn.maxpool2d(x, kernel=3, stride=2, padding=1), coeffs)

        worst = max(worst, nn.check_gradients(loss_fn, {"x": x},
                                              max_coords_per_tensor=40, rng=rng))
    assert worst < TOL, f"maxpool2d max relative error {worst:.3e}"


def test_global_avgpool_gradcheck():
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(3000 + trial)
        x = rand(rng, 2, 3, 5, 5)
        coeffs = rng.standard_normal((2, 3))

        def loss_fn():
            return nn.weighted_sum(nn.global_avgpool(x), coeffs)

        worst = max(worst, nn.check_gradients(loss_fn, {"x": x},
                                              max_coords_per_tensor=30, rng=rng))
    assert worst < TOL


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_gradcheck(train):
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(4000 + trial)
        params = nn.BatchNormParams.create(3, dtype=np.float64)
        params.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
        params.beta.data[...] = rng.standard_normal(3)
        if not train:
            params.running_mean[...] = rng.standard_normal(3)
            params.running_var[...] = rng.uniform(0.5, 2.0, 3)
            params.initialized = True
        x = rand(rng, 4, 3, 3, 3)
        coeffs = rng.standard_normal(x.shape)

        def loss_fn():
            return nn.weighted_sum(nn.batchnorm2d(x, params, train=train), coeffs)

        worst = max(worst, nn.check_gradients(
            loss_fn, {"x": x, "gamma": params.gamma, "beta": params.beta},
            max_coords_per_tensor=30, rng=rng))
    assert worst < TOL, f"batchnorm2d(train={train}) max relative error {worst:.3e}"


def test_relu_gradcheck():
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(5000 + trial)
        # keep values away from the kink at 0
        data = rng.standard_normal((3, 6))
        data[np.abs(data) < 0.05] += 0.1
        x = Tensor(data, requires_grad=True)
        coeffs = rng.standard_normal((3, 6))

        def loss_fn():
            return nn.weighted_sum(nn.relu(x), coeffs)

        worst = max(worst, nn.check_gradients(loss_fn, {"x": x}))
    assert worst < TOL


def test_linear_gradcheck():
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(6000 + trial)
        x = rand(rng, 3, 5)
        w = rand(rng, 5, 4)
        b = rand(rng, 4)
        coeffs = rng.standard_normal((3, 4))

        def loss_fn():
            return nn.weighted_sum(nn.linear(x, w, b), coeffs)

        worst = max(worst, nn.check_gradients(loss_fn, {"x": x, "w": w, "b": b}))
    assert worst < TOL


def test_softmax_gradcheck():
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(7000 + trial)
        x = rand(rng, 4, 3)
        coeffs = rng.standard_normal((4, 3))

        def loss_fn():
            return nn.weighted_sum(nn.softmax(x), coeffs)

        worst = max(worst, nn.check_gradients(loss_fn, {"x": x}))
    assert worst < TOL


def test_weighted_cross_entropy_gradcheck():
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(8000 + trial)
        x = rand(rng, 5, 3)
        labels = rng.integers(0, 3, size=5)
        weights = rng.uniform(0.5, 3.0, 3)

        def loss_fn():
            return nn.weighted_cross_entropy(x, labels, weights)

        worst = max(worst, nn.check_gradients(loss_fn, {"x": x}))
    assert worst < TOL


def test_residual_add_gradcheck():
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng(9000 + trial)
        x = rand(rng, 2, 4)
        y = rand(rng, 2, 4)
        coeffs = rng.standard_normal((2, 4))

        def loss_fn():
            return nn.weighted_sum(nn.add(x, y), coeffs)

        worst = max(worst, nn.check_gradients(loss_fn, {"x": x, "y": y}))
    assert worst < TOL
