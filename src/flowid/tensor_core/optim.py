"""Adam with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .params import ParameterStore

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam: first/second moment buffers keyed by parameter
    name, plus the step count.

    Weight decay is decoupled: theta <- theta - lr*wd*theta before the moment
    update, so the moments see only the loss gradient.
    """

    def __init__(self, lr: float = 0.002, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, store: ParameterStore) -> None:
        """One update from the gradients currently in the store."""
        self.t += 1
        for name, p in store.items():
            if not p.requires_grad:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** self.t)
            v_hat = v / (1.0 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
