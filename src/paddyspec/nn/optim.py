"""Adam optimizer with bias correction, applied inside backward."""
from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
BLOCK = 32 * 1024       # elements per update block: two block-sized scratch arrays


class Adam:
    """Per-parameter first/second moment state plus the update rule, with
    the standard BETA1, BETA2 and EPS. The learning rate is passed to
    :meth:`step` so a schedule can drive it without touching state.
    """

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, loss: Tensor, lr: float) -> None:
        """Backpropagate *loss* and apply one bias-corrected Adam update.

        Each parameter is updated the moment backward hands it over (once
        the closure of its last consumer has run) and its ``.grad`` is
        dropped, so the step holds at most one op's parameter gradients
        rather than the whole set. Parameters the loss does not reach get
        the zero-gradient update afterwards. Every update is the same
        arithmetic on the same gradient as a full backward followed by an
        update pass, so the results are bit-identical to that order.

        Gradients left over from an earlier backward are cleared first. A
        non-positive *lr* raises before anything changes; a backward closure
        that raises leaves the parameters already handed over updated.
        """
        if lr <= 0:
            raise ValueError(f"Adam: learning rate must be positive, got {lr}")
        self.zero_grad()
        t = self.step_count + 1
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        pending = {id(p): (p, m, v) for p, m, v in zip(self.params, self.m, self.v)}

        def update(leaf: Tensor) -> None:
            slot = pending.pop(id(leaf), None)
            if slot is not None:
                _update(*slot, lr, bc1, bc2)
                leaf.grad = None

        loss.backward(on_leaf=update)
        self.step_count = t
        for slot in pending.values():   # parameters the loss does not reach
            _update(*slot, lr, bc1, bc2)


def _update(p: Tensor, m: np.ndarray, v: np.ndarray, lr: float,
            bc1: float, bc2: float) -> None:
    """One bias-corrected Adam update of *p* in place; no ``.grad`` counts as zero."""
    g = p.grad
    if g is None:
        g = np.zeros_like(p.data)
    elif g.shape != p.data.shape:
        raise ShapeError(f"Adam: grad shape {g.shape} != param shape {p.data.shape}")
    # the update is elementwise, so it walks the parameter's memory in
    # order: flat views of p, m and v (m and v share p's layout), and g
    # read in the same element order (a view when its layout is p's)
    axes = np.argsort([-s for s in p.data.strides], kind="stable")
    flat_p, flat_m, flat_v = (np.reshape(arr.transpose(axes), -1, copy=False)
                              for arr in (p.data, m, v))
    flat_g = g.transpose(axes).reshape(-1)
    a_full = np.empty(min(flat_p.size, BLOCK), dtype=p.data.dtype)
    d_full = np.empty_like(a_full)
    for lo in range(0, flat_p.size, BLOCK):
        pb, mb, vb, gb = (f[lo:lo + BLOCK] for f in (flat_p, flat_m, flat_v, flat_g))
        a, d = a_full[:pb.size], d_full[:pb.size]
        # m*b1 + (1-b1)*g, v*b2 + (1-b2)*(g*g), lr*(m/bc1) / (sqrt(v/bc2) + eps),
        # in that operation order and the parameter's dtype
        mb *= BETA1
        np.multiply(1.0 - BETA1, gb, out=a)
        mb += a
        vb *= BETA2
        np.multiply(gb, gb, out=a)
        np.multiply(1.0 - BETA2, a, out=a)
        vb += a
        np.divide(mb, bc1, out=a)
        np.multiply(lr, a, out=a)
        np.divide(vb, bc2, out=d)
        np.sqrt(d, out=d)
        d += EPS
        a /= d
        pb -= a
