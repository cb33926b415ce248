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
    update, so the moments see only the loss gradient. The update runs in
    place, in one workspace per step that all parameters share, in the
    textbook expression's operation order, so it is bitwise that expression.
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
        c1, c2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        # freed after the step, so it adds nothing to the backward's peak
        work = np.empty((2, max((p.data.size for _, p in store.items()), default=0)))
        for name, p in store.items():
            if not p.requires_grad:
                continue
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
            s, r = (row[: p.data.size].reshape(p.shape) for row in work)
            g, m, v = p.grad, self.m[name], self.v[name]
            if self.weight_decay:
                np.multiply(self.lr * self.weight_decay, p.data, out=s)
                p.data -= s
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=s)
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=s)
            v += np.multiply(s, g, out=s)
            np.multiply(self.lr, np.divide(m, c1, out=s), out=s)  # lr * m_hat
            np.add(np.sqrt(np.divide(v, c2, out=r), out=r), EPS, out=r)
            p.data -= np.divide(s, r, out=s)
