"""Adam optimizer with bias correction."""
from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor


class Adam:
    """Per-parameter first/second moment state plus the update rule.

    Defaults beta1=0.9, beta2=0.999, eps=1e-8. The learning rate is passed
    to :meth:`step` so a schedule can drive it without touching state.
    """

    def __init__(self, params: list[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ValueError(f"Adam: betas must lie in (0, 1), got {beta1}, {beta2}")
        if eps <= 0:
            raise ValueError(f"Adam: eps must be positive, got {eps}")
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: float) -> None:
        """Apply one bias-corrected Adam update; missing grads count as zero."""
        if lr <= 0:
            raise ValueError(f"Adam: learning rate must be positive, got {lr}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise ShapeError(f"Adam: grad shape {g.shape} != param shape {p.data.shape}")
            # two scratch buffers per call, none kept: the update is
            # m*b1 + (1-b1)*g, v*b2 + (1-b2)*(g*g), lr*(m/bc1) / (sqrt(v/bc2) + eps),
            # in that operation order and the parameter's dtype
            a = np.empty_like(p.data)
            d = np.empty_like(p.data)
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, g, out=a)
            np.multiply(1.0 - self.beta2, a, out=a)
            v += a
            np.divide(m, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, bc2, out=d)
            np.sqrt(d, out=d)
            d += self.eps
            a /= d
            p.data -= a
