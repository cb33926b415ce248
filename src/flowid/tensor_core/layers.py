"""Recurrent and attention building blocks.

Both are batched: the extractors run them over a leading flow axis.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import engine as tc
from .engine import Tensor


def lstm_batch(inputs: np.ndarray, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Run a single-layer LSTM over (N, T, d_in) inputs; returns (N, T, H) states.

    Gate layout along the last axis of wx/wh/b is [input, forget, cell, output];
    input and forget and output gates are sigmoid, the cell candidate is tanh,
    and the initial hidden/cell state is zero.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ShapeError(f"lstm_batch expects (N, T, d_in), got {inputs.shape}")
    n, t_steps, d_in = inputs.shape
    hidden = wh.shape[0]
    if wx.shape != (d_in, 4 * hidden) or wh.shape != (hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm params inconsistent: wx {wx.shape}, wh {wh.shape}, b {b.shape}, d_in {d_in}"
        )
    h = tc.constant(np.zeros((n, hidden)))
    c = tc.constant(np.zeros((n, hidden)))
    states = []
    for t in range(t_steps):
        x_t = tc.constant(inputs[:, t, :])
        gates = tc.matmul(x_t, wx) + tc.matmul(h, wh) + b
        i = tc.sigmoid(tc.slice_last(gates, 0, hidden))
        f = tc.sigmoid(tc.slice_last(gates, hidden, 2 * hidden))
        g = tc.tanh(tc.slice_last(gates, 2 * hidden, 3 * hidden))
        o = tc.sigmoid(tc.slice_last(gates, 3 * hidden, 4 * hidden))
        c = f * c + i * g
        h = o * tc.tanh(c)
        states.append(tc.reshape(h, (n, 1, hidden)))
    return tc.concat(states, axis=1)


def attention_pool_batch(states: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """Additive attention over the time axis of (N, T, d) states -> (N, d).

    score_t = v . tanh(W s_t + b), weights = softmax over t.
    """
    if states.ndim != 3:
        raise ShapeError(f"attention_pool_batch expects (N, T, d), got {states.shape}")
    n, t_steps, _ = states.shape
    da = w.shape[1]
    hidden = tc.tanh(tc.matmul(states, w) + b)              # (N, T, da)
    scores = tc.matmul(hidden, tc.reshape(v, (da, 1)))      # (N, T, 1)
    weights = tc.softmax_last(tc.reshape(scores, (n, t_steps)))
    weighted = states * tc.reshape(weights, (n, t_steps, 1))
    return tc.tsum(weighted, axis=1)
