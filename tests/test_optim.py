"""Adam update rule behavior."""
import numpy as np
import pytest

from paddyspec.nn import Adam, ShapeError, Tensor


def reference_step(self, lr: float) -> None:
    """Apply one bias-corrected Adam update; missing grads count as zero."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if lr <= 0:
        raise ValueError(f"Adam: learning rate must be positive, got {lr}")
    self.step_count += 1
    t = self.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, m, v in zip(self.params, self.m, self.v):
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ShapeError(f"Adam: grad shape {g.shape} != param shape {p.data.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype)


def test_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p])
    for _ in range(25):
        p.grad = np.zeros(3)
        opt.step(lr=0.05)
    assert np.array_equal(p.data, before)
    assert opt.step_count == 25


def test_first_step_moves_by_lr_sign():
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    g = np.array([0.5, -0.25])
    p.grad = g.copy()
    opt = Adam([p])
    opt.step(lr=0.01)
    # bias-corrected first step: delta = -lr * g / (|g| + eps) ~= -lr * sign(g)
    delta = p.data - np.array([1.0, 1.0])
    assert np.allclose(delta, -0.01 * np.sign(g), rtol=1e-6)


def test_constant_gradient_gives_constant_step():
    # with bias correction, m_hat == g and v_hat == g*g for a held gradient,
    # so consecutive displacements are identical
    p = Tensor(np.array([0.0]), requires_grad=True)
    g = np.array([0.7])
    opt = Adam([p])
    p.grad = g.copy()
    opt.step(lr=0.1)
    d1 = p.data.copy()
    p.grad = g.copy()
    opt.step(lr=0.1)
    d2 = p.data - d1
    assert np.allclose(d1, d2, rtol=1e-12)


def test_moment_accumulation_carries_past_gradients():
    # after a nonzero gradient, a zero-gradient step still moves the parameter
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = np.array([1.0])
    opt.step(lr=0.1)
    after_first = p.data.copy()
    p.grad = np.zeros(1)
    opt.step(lr=0.1)
    assert p.data[0] != after_first[0]


def test_closed_form_two_steps():
    # exact m, v recursion for gradients g1 then g2
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    g1, g2 = 0.3, -0.8
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    x = -lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    x -= lr * (m / (1 - b1 ** 2)) / (np.sqrt(v / (1 - b2 ** 2)) + eps)

    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = np.array([g1])
    opt.step(lr=lr)
    p.grad = np.array([g2])
    opt.step(lr=lr)
    assert np.allclose(p.data[0], x, rtol=1e-12)


def test_rejects_bad_hyperparameters():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = Adam([p])
    with pytest.raises(ValueError):
        opt.step(lr=0.0)


def test_zero_grad_clears_buffers():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.ones(2)
    opt = Adam([p])
    opt.zero_grad()
    assert p.grad is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_step_is_bit_identical_to_reference(dtype):
    # grads spanning 1e-6..1e2, one parameter without a grad, and a
    # channels-last conv-shaped parameter, over 20 scheduled steps
    rng = np.random.default_rng(31)
    shapes = [(8, 3, 3, 5), (7,), (4, 6), (2,)]

    new = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
           for s in shapes]
    conv = new[0].data
    new[0].data = np.ascontiguousarray(conv.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    ref = [Tensor(p.data.copy(order="K"), requires_grad=True) for p in new]
    opt_new, opt_ref = Adam(new), Adam(ref)
    for step in range(20):
        lr = 0.05 * (0.9 ** step)
        for k, (p, q) in enumerate(zip(new, ref)):
            if k == 3:
                p.grad = q.grad = None
                continue
            scale = 10.0 ** rng.uniform(-6, 2, size=p.shape)
            g = (rng.standard_normal(p.shape) * scale).astype(dtype)
            p.grad, q.grad = g.copy(), g.copy()
        opt_new.step(lr)
        reference_step(opt_ref, lr)
        for a, b in zip([p.data for p in new] + opt_new.m + opt_new.v,
                        [q.data for q in ref] + opt_ref.m + opt_ref.v):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()
