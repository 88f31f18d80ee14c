"""Finite-difference verification of analytic gradients: the checker, one
case per op, and the full network; runnable from the CLI and reused by the
tests.

Run in float64: central differences at h ~ cbrt(machine eps) leave enough
headroom to resolve a 1e-4 relative error bound.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import nn
from .model import build_resnet18
from .nn import BatchNormParams, Tensor

TOLERANCE = 1e-4
COORDS_PER_TENSOR = 40
# The full-network probe stays at 32x32 inputs: anything smaller leaves the
# deepest batchnorms normalizing over 2 values, where the loss is too
# ill-conditioned for finite differences to resolve the tolerance.
FULL_NET_INPUT_SIZE = 32
FULL_NET_PROBES = 3  # parameter tensors probed per trial


def relative_error(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|, 1e-8)."""
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def check_gradients(loss_fn: Callable[[], Tensor], tensors: dict[str, Tensor],
                    rng: np.random.Generator) -> float:
    """Worst relative error between analytic gradients and central differences.

    loss_fn must rebuild the forward pass from the tensors' current data, so
    in-place perturbations are observed. Each tensor is probed at
    ``COORDS_PER_TENSOR`` coordinates drawn from rng without replacement, or
    at all of them when it has fewer.
    """
    for t in tensors.values():
        t.zero_grad()
    loss_fn().backward()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in tensors.items()}

    worst = 0.0
    for name, t in tensors.items():
        coords = list(np.ndindex(t.shape))
        if len(coords) > COORDS_PER_TENSOR:
            pick = rng.choice(len(coords), size=COORDS_PER_TENSOR, replace=False)
            coords = [coords[i] for i in pick]
        for idx in coords:
            orig = t.data[idx]
            h = 6e-6 * max(1.0, abs(float(orig)))
            t.data[idx] = orig + h
            up = loss_fn().item()
            t.data[idx] = orig - h
            down = loss_fn().item()
            t.data[idx] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, relative_error(float(analytic[name][idx]), fd))
    return worst


def _conv_case(rng, kernel, stride, padding, bias):
    """Conv loss on a (2, 3, s, s) input, s drawn from kernel + 2 to kernel + 5."""
    size = kernel + int(rng.integers(2, 6))
    x = Tensor(rng.standard_normal((2, 3, size, size)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, kernel, kernel)), requires_grad=True)
    tensors = {"x": x, "w": w}
    b = None
    if bias:
        b = tensors["b"] = Tensor(rng.standard_normal(4), requires_grad=True)
    out = nn.conv_output_size(size, kernel, stride, padding)
    coeffs = rng.standard_normal((2, 4, out, out))
    return (lambda: nn.weighted_sum(nn.conv2d(x, w, b, stride, padding), coeffs)), tensors


def op_cases() -> dict:
    """One gradcheck builder per op; each call returns (loss_fn, tensors)."""

    def conv3(r):
        return _conv_case(r, 3, 1, 1, bias=False)

    def conv3_unpadded(r):
        return _conv_case(r, 3, 1, 0, bias=True)

    def conv7(r):
        return _conv_case(r, 7, 2, 3, bias=False)

    def conv1(r):
        return _conv_case(r, 1, 2, 0, bias=True)

    def maxpool(r):
        x = Tensor(r.standard_normal((2, 2, 7, 7)), requires_grad=True)
        coeffs = r.standard_normal((2, 2, 4, 4))
        return (lambda: nn.weighted_sum(nn.maxpool2d(x, 3, 2, 1), coeffs)), {"x": x}

    def avgpool(r):
        x = Tensor(r.standard_normal((2, 3, 5, 5)), requires_grad=True)
        coeffs = r.standard_normal((2, 3))
        return (lambda: nn.weighted_sum(nn.global_avgpool(x), coeffs)), {"x": x}

    def batchnorm_train(r):
        params = BatchNormParams.create(3, dtype=np.float64)
        params.gamma.data[...] = r.uniform(0.5, 1.5, 3)
        params.beta.data[...] = r.standard_normal(3)
        x = Tensor(r.standard_normal((4, 3, 3, 3)), requires_grad=True)
        coeffs = r.standard_normal(x.shape)
        return (lambda: nn.weighted_sum(nn.batchnorm2d(x, params, True), coeffs)), {
            "x": x, "gamma": params.gamma, "beta": params.beta}

    def batchnorm_eval(r):
        params = BatchNormParams.create(3, dtype=np.float64)
        params.running_mean[...] = r.standard_normal(3)
        params.running_var[...] = r.uniform(0.5, 2.0, 3)
        params.initialized = True
        x = Tensor(r.standard_normal((2, 3, 3, 3)), requires_grad=True)
        coeffs = r.standard_normal(x.shape)
        return (lambda: nn.weighted_sum(nn.batchnorm2d(x, params, False), coeffs)), {
            "x": x, "gamma": params.gamma, "beta": params.beta}

    def relu(r):
        data = r.standard_normal((3, 6))
        data[np.abs(data) < 0.05] += 0.1
        x = Tensor(data, requires_grad=True)
        coeffs = r.standard_normal((3, 6))
        return (lambda: nn.weighted_sum(nn.relu(x), coeffs)), {"x": x}

    def linear(r):
        x = Tensor(r.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(r.standard_normal((5, 4)), requires_grad=True)
        b = Tensor(r.standard_normal(4), requires_grad=True)
        coeffs = r.standard_normal((3, 4))
        return (lambda: nn.weighted_sum(nn.linear(x, w, b), coeffs)), {
            "x": x, "w": w, "b": b}

    def softmax(r):
        x = Tensor(r.standard_normal((4, 3)), requires_grad=True)
        coeffs = r.standard_normal((4, 3))
        return (lambda: nn.weighted_sum(nn.softmax(x), coeffs)), {"x": x}

    def cross_entropy(r):
        x = Tensor(r.standard_normal((5, 3)), requires_grad=True)
        labels = r.integers(0, 3, 5)
        weights = r.uniform(0.5, 3.0, 3)
        return (lambda: nn.weighted_cross_entropy(x, labels, weights)), {"x": x}

    def residual_add(r):
        x = Tensor(r.standard_normal((2, 4)), requires_grad=True)
        y = Tensor(r.standard_normal((2, 4)), requires_grad=True)
        coeffs = r.standard_normal((2, 4))
        return (lambda: nn.weighted_sum(nn.add(x, y), coeffs)), {"x": x, "y": y}

    return {
        "conv2d_3x3": conv3,
        "conv2d_3x3_unpadded_bias": conv3_unpadded,
        "conv2d_7x7_s2": conv7,
        "conv2d_1x1_s2_bias": conv1,
        "maxpool2d": maxpool,
        "global_avgpool": avgpool,
        "batchnorm_train": batchnorm_train,
        "batchnorm_eval": batchnorm_eval,
        "relu": relu,
        "linear": linear,
        "softmax": softmax,
        "weighted_cross_entropy": cross_entropy,
        "residual_add": residual_add,
    }


def check_ops(trials: int, seed: int) -> dict[str, float]:
    """Max relative error per op over the given number of random trials."""
    results: dict[str, float] = {}
    for case_idx, (name, case) in enumerate(op_cases().items()):
        worst = 0.0
        for trial in range(trials):
            rng = np.random.default_rng([seed, case_idx, trial])
            loss_fn, tensors = case(rng)
            worst = max(worst, check_gradients(loss_fn, tensors, rng))
        results[name] = worst
    return results


def check_full_network(trials: int, seed: int) -> float:
    """Directional finite differences through the whole ResNet18 + loss.

    Per-coordinate probes are hopeless on a deep ReLU network: dead units
    carry exactly-zero gradients that sit below the relative-error floor,
    and with ~10^5 activations some kink always lies inside the step. A
    random unit direction over one parameter tensor moves each coordinate
    by only h/sqrt(n) (no kink crossings) while the directional derivative
    it checks stays well-scaled.
    """
    h = 3e-7
    model = build_resnet18(in_channels=4, num_classes=3, seed=seed, dtype=np.float64)
    named = model.named_parameters()
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, 7777, trial])
        x = Tensor(rng.standard_normal((2, 4, FULL_NET_INPUT_SIZE, FULL_NET_INPUT_SIZE)))
        labels = rng.integers(0, 3, 2)
        weights = rng.uniform(0.5, 2.5, 3)

        def loss_fn():
            logits = model.forward(x, train=True)
            return nn.weighted_cross_entropy(logits, labels, weights)

        for _, t in named:
            t.zero_grad()
        loss_fn().backward()

        for i in rng.choice(len(named), size=FULL_NET_PROBES, replace=False):
            _, t = named[i]
            v = rng.standard_normal(t.data.shape)
            v /= np.linalg.norm(v)
            analytic = float((t.grad * v).sum())
            orig = t.data.copy()
            t.data += h * v
            up = loss_fn().item()
            t.data[...] = orig - h * v
            down = loss_fn().item()
            t.data[...] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, relative_error(analytic, fd))
    return worst


def run_suite(trials: int, seed: int,
              full_net_trials: int) -> tuple[dict[str, float], bool]:
    """Whole suite; returns (per-check worst errors, all_passed)."""
    results = check_ops(trials=trials, seed=seed)
    results["resnet18_full"] = check_full_network(trials=full_net_trials, seed=seed)
    ok = all(v < TOLERANCE for v in results.values())
    return results, ok
