"""Recurrent and attention building blocks, each one autodiff node with a
hand-written backward, batched over a leading flow axis.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import engine as tc
from .engine import Tensor


def lstm_batch(inputs: np.ndarray, wx: Tensor, wh: Tensor, b: Tensor,
               dtype=np.float64) -> Tensor:
    """Run a single-layer LSTM over (N, T, d_in) inputs; returns (N, T, H) states.

    Gate layout along the last axis of wx/wh/b is [input, forget, cell, output];
    input and forget and output gates are sigmoid, the cell candidate is tanh,
    and the initial hidden/cell state is zero.

    One autodiff node. The input projection of all T steps is one product,
    time-major (T, N, 4H); each step adds h @ wh and then b to its slice, and
    applies 1/(1+exp(-x)) and tanh there in place. c = f*c + i*g and
    h = o*tanh(c) are computed in that order, so at d_in = 1 (where the
    projection is one exact product per element) the states are bitwise
    those of the per-step graph of matmul/add/sigmoid/tanh/mul nodes.

    When a gradient is needed the node keeps the activated gates (T, N, 4H),
    the cells and tanh(c) (T, N, H each), and the returned states; otherwise
    it keeps nothing. The backward runs BPTT one step at a time on (N, .)
    buffers, writing each step's pre-activation gate gradients into one
    (T, N, 4H) array, and then gets the wx, wh and b gradients from one GEMM
    or sum each over all steps. Those sums run over steps and flows in one
    pass rather than step by step, so the gradients differ from the per-step
    graph's in the last bits. The inputs get no gradient.

    `dtype` is the arithmetic's: the projection, gates, cells, tanh(c), states
    and BPTT buffers are held in it, and the parameters are cast to it once.
    The returned states and the parameter gradients are float64 (b's summed in
    float64). The bitwise claim above holds at dtype=float64. A gate whose
    pre-activation is below about -88.7 in float32 (-709 in float64)
    overflows exp; that overflow is expected, and the gate's limit 0 is kept.
    """
    inputs = np.asarray(inputs, dtype=dtype)
    if inputs.ndim != 3:
        raise ShapeError(f"lstm_batch expects (N, T, d_in), got {inputs.shape}")
    n, t_steps, d_in = inputs.shape
    hidden = wh.shape[0]
    if wx.shape != (d_in, 4 * hidden) or wh.shape != (hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ShapeError(
            f"lstm params inconsistent: wx {wx.shape}, wh {wh.shape}, b {b.shape}, d_in {d_in}"
        )
    keep = tc.needs_grad(wx, wh, b)
    gi, gf, gg, go = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    gif = slice(0, 2 * hidden)

    w_x, w_h, bias = (p.data.astype(dtype, copy=False) for p in (wx, wh, b))
    x_steps = inputs.transpose(1, 0, 2).reshape(t_steps * n, d_in)
    acts = (x_steps @ w_x).reshape(t_steps, n, 4 * hidden)  # projection, then gates
    # cells[t] is the cell state before step t; without a backward two slots do
    cells = np.zeros((t_steps + 1 if keep else 2, n, hidden), dtype=dtype)
    tanh_c = np.empty((t_steps if keep else 1, n, hidden), dtype=dtype)
    out = np.empty((n, t_steps, hidden), dtype=dtype)
    h = np.zeros((n, hidden), dtype=dtype)
    for t in range(t_steps):
        a = acts[t]
        a += h @ w_h
        a += bias
        with np.errstate(over="ignore"):  # a saturated gate: exp overflows, the gate is 0
            a[:, gif] = 1.0 / (1.0 + np.exp(-a[:, gif]))
            a[:, go] = 1.0 / (1.0 + np.exp(-a[:, go]))
        a[:, gg] = np.tanh(a[:, gg])
        c = cells[(t + 1) % len(cells)]
        c[...] = a[:, gf] * cells[t % len(cells)] + a[:, gi] * a[:, gg]
        tanh_c[t % len(tanh_c)] = np.tanh(c)
        h = a[:, go] * tanh_c[t % len(tanh_c)]
        out[:, t] = h
    out = out.astype(np.float64, copy=False)  # the node's states; bw reads these

    def bw(g):
        d_gates = np.empty_like(acts)
        dh = np.zeros((n, hidden), dtype=dtype)
        dc = np.zeros((n, hidden), dtype=dtype)
        for t in reversed(range(t_steps)):
            a, d, tc_t = acts[t], d_gates[t], tanh_c[t]
            dh += g[:, t]
            dc += dh * a[:, go] * (1.0 - tc_t * tc_t)
            d[:, gi] = dc * a[:, gg]
            d[:, gf] = dc * cells[t]
            d[:, gg] = dc * a[:, gi]
            d[:, go] = dh * tc_t
            dc *= a[:, gf]
            # through the activations: a*(1-a) for the sigmoids, 1-g^2 for tanh
            deriv = a * (1.0 - a)
            deriv[:, gg] = 1.0 - a[:, gg] * a[:, gg]
            d *= deriv
            dh = d @ w_h.T
        d_flat = d_gates.reshape(t_steps * n, 4 * hidden)
        h_prev = out[:, :-1].transpose(1, 0, 2).astype(dtype, order="C").reshape(-1, hidden)
        return ((x_steps.T @ d_flat).astype(np.float64, copy=False),
                (h_prev.T @ d_flat[n:]).astype(np.float64, copy=False),
                d_flat.sum(axis=0, dtype=np.float64))

    return tc._node(out, (wx, wh, b), bw)


def attention_pool_batch(states: Tensor, w: Tensor, b: Tensor, v: Tensor) -> Tensor:
    """Additive attention over the time axis of (N, T, d) states -> (N, d).

    score_t = v . tanh(W s_t + b), weights = softmax over t. Float64: the
    forward runs the former node graph's numpy ops in its order, so its output
    is bitwise that graph's. The node keeps tanh(W s + b) and the weights; the
    backward sums in another order (W's gradient is one GEMM over all N*T
    rows), so the gradients differ in the last bits. Constant states get none.
    """
    if states.ndim != 3:
        raise ShapeError(f"attention_pool_batch expects (N, T, d), got {states.shape}")
    n, t_steps, d = states.shape
    da = w.shape[1]
    s = states.data
    hid = s @ w.data  # (N, T, da)
    hid += b.data
    np.tanh(hid, out=hid)
    scores = (hid @ v.data.reshape(da, 1)).reshape(n, t_steps)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    out = (s * weights.reshape(n, t_steps, 1)).sum(axis=1)

    def bw(g):
        d_weights = (s @ g[:, :, None]).reshape(n, t_steps)
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
        hid2 = hid.reshape(-1, da)
        d_u = np.multiply.outer(d_scores.reshape(-1), v.data)
        d_u *= 1.0 - hid2 * hid2
        d_states = None
        if states.requires_grad:
            d_states = (d_u @ w.data.T).reshape(n, t_steps, d)
            d_states += weights[:, :, None] * g[:, None, :]
        return (d_states, s.reshape(-1, d).T @ d_u, d_u.sum(axis=0),
                hid2.T @ d_scores.reshape(-1))

    return tc._node(out, (states, w, b, v), bw)
