"""Adam update rule behavior, and its place inside backward."""
import numpy as np
import pytest

from paddyspec import nn
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


def loss_of(params, grads):
    """A scalar whose backward hands each parameter its entry of *grads*;
    a parameter whose entry is None is not reached by the loss."""
    reached = [(p, g) for p, g in zip(params, grads) if g is not None]

    def backward(_grad):
        for p, g in reached:
            p._accumulate(np.array(g, dtype=p.dtype))

    return Tensor.from_op(np.zeros((), params[0].dtype), [p for p, _ in reached],
                          backward)


def spy_on_leaves(monkeypatch, record=None):
    """Patch Tensor.backward so that each leaf handed to an ``on_leaf``
    callback is recorded before the callback runs, as ``record(leaf)`` or by
    default as the leaf and a copy of its gradient; returns the record."""
    seen = []
    original = Tensor.backward

    def backward(self, on_leaf=None):
        if on_leaf is None:
            return original(self)

        def spy(leaf):
            seen.append(record(leaf) if record is not None else
                        (leaf, None if leaf.grad is None else leaf.grad.copy()))
            on_leaf(leaf)
        return original(self, on_leaf=spy)

    monkeypatch.setattr(Tensor, "backward", backward)
    return seen


def test_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p])
    for _ in range(25):
        opt.step(loss_of([p], [np.zeros(3)]), lr=0.05)
    assert np.array_equal(p.data, before)
    assert opt.step_count == 25


def test_first_step_moves_by_lr_sign():
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    g = np.array([0.5, -0.25])
    opt = Adam([p])
    opt.step(loss_of([p], [g]), lr=0.01)
    # bias-corrected first step: delta = -lr * g / (|g| + eps) ~= -lr * sign(g)
    delta = p.data - np.array([1.0, 1.0])
    assert np.allclose(delta, -0.01 * np.sign(g), rtol=1e-6)


def test_constant_gradient_gives_constant_step():
    # with bias correction, m_hat == g and v_hat == g*g for a held gradient,
    # so consecutive displacements are identical
    p = Tensor(np.array([0.0]), requires_grad=True)
    g = np.array([0.7])
    opt = Adam([p])
    opt.step(loss_of([p], [g]), lr=0.1)
    d1 = p.data.copy()
    opt.step(loss_of([p], [g]), lr=0.1)
    d2 = p.data - d1
    assert np.allclose(d1, d2, rtol=1e-12)


def test_moment_accumulation_carries_past_gradients():
    # after a nonzero gradient, a zero-gradient step still moves the parameter
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p])
    opt.step(loss_of([p], [np.array([1.0])]), lr=0.1)
    after_first = p.data.copy()
    opt.step(loss_of([p], [np.zeros(1)]), lr=0.1)
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
    opt.step(loss_of([p], [np.array([g1])]), lr=lr)
    opt.step(loss_of([p], [np.array([g2])]), lr=lr)
    assert np.allclose(p.data[0], x, rtol=1e-12)


def test_rejects_bad_hyperparameters():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = Adam([p])
    with pytest.raises(ValueError):
        opt.step(loss_of([p], [np.ones(1)]), lr=0.0)


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
        grads = []
        for k, q in enumerate(ref):
            g = None
            if k != 3:
                scale = 10.0 ** rng.uniform(-6, 2, size=q.shape)
                g = (rng.standard_normal(q.shape) * scale).astype(dtype)
            grads.append(g)
            q.grad = None if g is None else g.copy()
        opt_new.step(loss_of(new, grads), lr)
        reference_step(opt_ref, lr)
        for a, b in zip([p.data for p in new] + opt_new.m + opt_new.v,
                        [q.data for q in ref] + opt_ref.m + opt_ref.v):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()


def test_step_clears_stale_gradients():
    # a .grad left by an earlier plain backward is not added to the step's
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = Tensor(p.data.copy(), requires_grad=True)
    opt, ref = Adam([p]), Adam([q])
    p.grad = np.full(2, 100.0)
    g = np.array([0.5, -0.25])
    opt.step(loss_of([p], [g]), lr=0.01)
    q.grad = g.copy()
    reference_step(ref, 0.01)
    assert p.data.tobytes() == q.data.tobytes()
    assert p.grad is None


class TestInsideBackward:
    """Adam.step updates each parameter from inside backward, the moment its
    gradient is final."""

    def test_parameter_read_by_two_ops_is_updated_once_on_the_summed_gradient(
            self, monkeypatch):
        rng = np.random.default_rng(3)
        p = Tensor(rng.standard_normal(6).astype(np.float32), requires_grad=True)
        q = Tensor(p.data.copy(), requires_grad=True)
        c = rng.standard_normal(6).astype(np.float32)

        def loss(t):
            return nn.weighted_sum(nn.add(nn.relu(t), t), c)

        seen = spy_on_leaves(monkeypatch)
        opt, ref = Adam([p]), Adam([q])
        loss(q).backward()
        summed = q.grad.copy()
        reference_step(ref, 0.05)
        opt.step(loss(p), 0.05)
        assert [leaf for leaf, _ in seen] == [p]
        assert seen[0][1].tobytes() == summed.tobytes()
        for a, b in zip([p.data] + opt.m + opt.v, [q.data] + ref.m + ref.v):
            assert a.tobytes() == b.tobytes()
        assert p.grad is None and opt.step_count == 1

    def test_unreached_parameter_gets_the_zero_gradient_update(self, monkeypatch):
        params = [Tensor(np.array([1.0, -1.0]), requires_grad=True) for _ in range(2)]
        refs = [Tensor(t.data.copy(), requires_grad=True) for t in params]
        opt, ref = Adam(params), Adam(refs)
        seen = spy_on_leaves(monkeypatch)
        g = [np.array([0.3, -0.7]), np.array([2.0, 0.5])]
        after = []
        for grads in (g, [g[0], None]):   # the second loss does not reach params[1]
            seen.clear()
            opt.step(loss_of(params, grads), 0.05)
            for q, grad in zip(refs, grads):
                q.grad = None if grad is None else grad.copy()
            reference_step(ref, 0.05)
            after.append(params[1].data.copy())
        assert [leaf for leaf, _ in seen] == [params[0]]
        assert not np.array_equal(after[0], after[1])   # momentum carried it on
        for a, b in zip([t.data for t in params] + opt.m + opt.v,
                        [t.data for t in refs] + ref.m + ref.v):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("lr", [0.0, -0.01])
    def test_bad_lr_raises_before_any_closure_runs(self, lr):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([p])
        opt.step(loss_of([p], [np.array([0.1, 0.2])]), 0.05)
        state = [a.copy() for a in [p.data] + opt.m + opt.v]
        ran = []
        loss = Tensor.from_op(np.zeros(()), [p], lambda grad: ran.append(grad))
        with pytest.raises(ValueError, match="learning rate"):
            opt.step(loss, lr)
        assert ran == [] and opt.step_count == 1 and p.grad is None
        for a, b in zip([p.data] + opt.m + opt.v, state):
            assert a.tobytes() == b.tobytes()
        loss.backward()   # the tape is intact
        assert len(ran) == 1
