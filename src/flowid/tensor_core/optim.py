"""Adam with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .params import ParameterStore


class AdamState:
    """First/second moment buffers keyed by parameter name, plus the step count."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0


def adam_step(store: ParameterStore, state: AdamState, *, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              weight_decay: float = 0.0, t: int | None = None) -> ParameterStore:
    """One bias-corrected Adam update from the gradients currently in the store.

    Weight decay is decoupled: theta <- theta - lr*wd*theta before the moment
    update, so the moments see only the loss gradient.
    """
    state.t = state.t + 1 if t is None else int(t)
    step = state.t
    for name, p in store.items():
        if not p.requires_grad:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** step)
        v_hat = v / (1.0 - beta2 ** step)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return store


class Adam:
    """Stateful convenience wrapper around adam_step."""

    def __init__(self, lr: float = 0.002, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.state = AdamState()

    def step(self, store: ParameterStore) -> None:
        adam_step(store, self.state, lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                  eps=self.eps, weight_decay=self.weight_decay)
