"""Analytic backward passes checked against central finite differences.

Every op is checked through its case in ``gradsuite.op_cases()``, the one
the CLI and the acceptance suite run; the tests below add the engine's
tape behaviour. All checks run in float64. The bound is max relative error
< 1e-4 with relative error |a-b| / max(|a|, |b|, 1e-8).
"""
import ast
import weakref
from pathlib import Path

import numpy as np
import pytest

from paddyspec import gradsuite, nn
from paddyspec.model import build_resnet18
from paddyspec.nn import Tensor, ops

N_TRIALS = 20
OP_CASES = gradsuite.op_cases()


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


@pytest.mark.parametrize("name", list(OP_CASES))
def test_op_gradcheck(name):
    # seeded apart from gradsuite.check_ops, so these trials are other draws
    worst = 0.0
    for trial in range(N_TRIALS):
        rng = np.random.default_rng([1000, trial])
        loss_fn, tensors = OP_CASES[name](rng)
        worst = max(worst, gradsuite.check_gradients(loss_fn, tensors, rng))
    assert worst < gradsuite.TOLERANCE, f"{name} max relative error {worst:.3e}"


def test_every_op_has_a_finite_difference_case(monkeypatch):
    """Each name an op in nn/ops.py records on the tape is recorded while
    some op case's loss runs, so a new op cannot land without a case."""
    tree = ast.parse(Path(ops.__file__).read_text())
    op_names = {kw.value.value for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_op"
                for kw in node.keywords if kw.arg == "name"}
    assert op_names
    losses = [case(np.random.default_rng(0))[0] for case in OP_CASES.values()]
    recorded = set()
    from_op = Tensor.from_op

    def recording_from_op(data, parents, backward_fn, name):
        recorded.add(name)
        return from_op(data, parents, backward_fn, name)

    monkeypatch.setattr(Tensor, "from_op", staticmethod(recording_from_op))
    for loss_fn in losses:
        loss_fn()
    assert op_names <= recorded, f"ops without a case: {sorted(op_names - recorded)}"


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

    assert gradsuite.check_gradients(loss_fn, {"x1": x1, "x2": x2, "w": w},
                                     rng) < gradsuite.TOLERANCE
    w.zero_grad()
    loss_fn().backward()
    separate = []
    for xi in (x1, x2):
        wi = Tensor(w.data, requires_grad=True)
        nn.weighted_sum(nn.conv2d(xi, wi, None, 1, 1), coeffs).backward()
        separate.append(wi.grad)
    assert np.array_equal(w.grad, separate[0] + separate[1])
