"""Adam optimizer with bias correction."""
from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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

    def step(self, lr: float) -> None:
        """Apply one bias-corrected Adam update; missing grads count as zero."""
        if lr <= 0:
            raise ValueError(f"Adam: learning rate must be positive, got {lr}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
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
            m *= BETA1
            np.multiply(1.0 - BETA1, g, out=a)
            m += a
            v *= BETA2
            np.multiply(g, g, out=a)
            np.multiply(1.0 - BETA2, a, out=a)
            v += a
            np.divide(m, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, bc2, out=d)
            np.sqrt(d, out=d)
            d += EPS
            a /= d
            p.data -= a
