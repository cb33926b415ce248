"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

The engine is deliberately small: a Tensor wraps an ndarray plus the closure
needed to push gradients to its parents, and `backward` walks the graph once
in reverse topological order. Only the operations the pipeline actually uses
are provided. Inputs are typically constants (no gradient); trainable leaves
are created by ParameterStore and accumulate into their `.grad` array.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ShapeError


class _GradMode(threading.local):
    """Per-thread graph-construction switch; every thread starts enabled."""

    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure forward evaluation).

    The switch is per thread: a block in one thread never disables or
    re-enables graph construction in another.
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """Dense float64 array with optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "trainable", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.trainable = True
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return pow_const(self, float(exponent))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.grad = None  # interior node; gradients flow through, never stored
        out._parents = tuple(parents)
        out._backward = backward
    return out


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's .grad array."""
    if root.data.size != 1:
        raise ShapeError(f"backward() needs a scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is not None:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _node(data, (a, b), bw)


def pow_const(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    data = a.data ** exponent

    def bw(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _node(data, (a,), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def bw(g):
        return (g * data,)

    return _node(data, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def bw(g):
        return (g / a.data,)

    return _node(data, (a,), bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def bw(g):
        return (g * 0.5 / data,)

    return _node(data, (a,), bw)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - data * data),)

    return _node(data, (a,), bw)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        return (g * data * (1.0 - data),)

    return _node(data, (a,), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def bw(g):
        return (g * (a.data > 0.0),)

    return _node(data, (a,), bw)


def elu(a, alpha: float = 1.0) -> Tensor:
    a = as_tensor(a)
    neg = alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0)
    data = np.where(a.data > 0.0, a.data, neg)

    def bw(g):
        return (g * np.where(a.data > 0.0, 1.0, neg + alpha),)

    return _node(data, (a,), bw)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only where the input lies inside."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)

    def bw(g):
        return (g * ((a.data >= lo) & (a.data <= hi)),)

    return _node(data, (a,), bw)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def transpose2d(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose2d expects a matrix, got {a.shape}")
    data = a.data.T

    def bw(g):
        return (g.T,)

    return _node(data, (a,), bw)


def swap_last2(a) -> Tensor:
    """Exchange the last two axes (batched transpose)."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"swap_last2 needs >=2-D, got {a.shape}")
    data = np.swapaxes(a.data, -1, -2)

    def bw(g):
        return (np.swapaxes(g, -1, -2),)

    return _node(data, (a,), bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.shape),)

    return _node(data, (a,), bw)


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(data, tuple(parts), bw)


def slice_last(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    data = a.data[..., start:stop]

    def bw(g):
        z = np.zeros_like(a.data)
        z[..., start:stop] = g
        return (z,)

    return _node(data, (a,), bw)


def pad_last(a, left: int, right: int) -> Tensor:
    a = as_tensor(a)
    width = [(0, 0)] * (a.ndim - 1) + [(left, right)]
    data = np.pad(a.data, width)
    stop = data.shape[-1] - right

    def bw(g):
        return (g[..., left:stop],)

    return _node(data, (a,), bw)


def gather_rows(a, idx: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; backward scatters into the originals."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def bw(g):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        return (z,)

    return _node(data, (a,), bw)


def take_per_row(a, cols: np.ndarray) -> Tensor:
    """out[i] = a[i, cols[i]] for a 2-D tensor."""
    a = as_tensor(a)
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.arange(a.shape[0])
    data = a.data[rows, cols]

    def bw(g):
        z = np.zeros_like(a.data)
        np.add.at(z, (rows, cols), g)
        return (z,)

    return _node(data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _node(data, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def max_last(a) -> Tensor:
    """Maximum over the last axis; gradient routed to the argmax entries."""
    a = as_tensor(a)
    idx = np.argmax(a.data, axis=-1)
    data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        z = np.zeros_like(a.data)
        np.put_along_axis(z, idx[..., None], g[..., None], axis=-1)
        return (z,)

    return _node(data, (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _reduce_matmul_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis in range(g.ndim - 2):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bw(g):
        ga = _reduce_matmul_grad(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _reduce_matmul_grad(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _node(data, (a, b), bw)


# ---------------------------------------------------------------------------
# softmax family (last axis, max-shifted for stability)
# ---------------------------------------------------------------------------

def softmax_last(a) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return _node(data, (a,), bw)


def logsumexp_last(a) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=-1, keepdims=True)
    data = (np.log(s) + m)[..., 0]

    def bw(g):
        return (g[..., None] * (e / s),)

    return _node(data, (a,), bw)


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------

# Scratch cap for one chunk's patch matrix (and, in the backward, its column
# gradient). Cache-sized on purpose: the matmul reads a chunk's patches right
# after im2col writes them, and the backward scatters its column gradient right
# after the matmul writes it, so a chunk that is still in cache skips a round
# trip through memory. The paper's conv2 (16->32 channels, k=25, L=320) at
# N=300 on a 2-core Xeon VM (2 MB L2 per core), 1/4/16/64 MB chunks: forward
# 0.113/0.115/0.156/0.175 s, backward 0.319/0.302/0.339/0.408 s. It also
# bounds conv1d's transient memory per chunk rather than per batch.
_CONV_CHUNK_BYTES = 4 * 1024 * 1024


def _im2col(xp: np.ndarray, k: int, stride: int, l_out: int) -> np.ndarray:
    """(N, C, Lp) -> (N*l_out, C*k) patch matrix (copies; callers chunk N)."""
    n, c, _ = xp.shape
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, l_out, c, k), strides=(s0, s2 * stride, s1, s2), writeable=False
    )
    return windows.reshape(n * l_out, c * k)


def conv1d(x, kernel, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation.

    x: (C_in, L) or batched (N, C_in, L); kernel: (C_out, C_in, k).
    Output length floor((L + 2*padding - k)/stride) + 1; zero padding.

    Both passes run over chunks of flows whose patch matrix fits in
    _CONV_CHUNK_BYTES, so scratch memory is a few chunks, not the whole batch.
    The backward builds each chunk's column gradient tap-major, as
    (rows, k, C_in): tap j's slab is then contiguous over channels and is added
    into a channels-last input gradient with one strided add per tap, instead
    of k adds that each read the whole column gradient at a k-element stride.
    Every input-gradient element still sums its taps in ascending order, so
    the result equals the channel-major scatter exactly.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    squeeze = x.ndim == 2
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 3 or kernel.ndim != 3:
        raise ShapeError(f"conv1d expects (N,C,L) and (C_out,C_in,k), got {x.shape}, {kernel.shape}")
    n, c_in, length = xd.shape
    c_out, kc_in, k = kernel.shape
    if kc_in != c_in:
        raise ShapeError(f"conv1d channel mismatch: input {c_in}, kernel {kc_in}")
    if k < 1 or stride < 1 or padding < 0 or length + 2 * padding < k:
        raise ShapeError(
            f"conv1d geometry invalid: L={length}, k={k}, stride={stride}, padding={padding}"
        )
    l_out = (length + 2 * padding - k) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding)))
    w2 = kernel.data.reshape(c_out, c_in * k)

    chunk = max(1, _CONV_CHUNK_BYTES // max(1, 8 * l_out * c_in * k))
    out = np.empty((n, c_out, l_out))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        cols = _im2col(xp[lo:hi], k, stride, l_out)
        out[lo:hi] = (cols @ w2.T).reshape(hi - lo, l_out, c_out).transpose(0, 2, 1)

    def bw(g):
        gb = g[None] if g.ndim == 2 else g  # (N, C_out, L_out)
        w_taps = kernel.data.transpose(0, 2, 1).reshape(c_out, k * c_in)
        span = stride * l_out
        gw = np.zeros_like(w2)
        # channels-last input gradient; a constant input (the raw byte
        # stream) needs none
        gxp = np.zeros((n, xp.shape[2], c_in)) if x.requires_grad else None
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            gflat = gb[lo:hi].transpose(0, 2, 1).reshape((hi - lo) * l_out, c_out)
            cols = _im2col(xp[lo:hi], k, stride, l_out)
            gw += gflat.T @ cols
            if gxp is None:
                continue
            gcols = (gflat @ w_taps).reshape(hi - lo, l_out, k, c_in)
            gx_chunk = gxp[lo:hi]
            for j in range(k):
                gx_chunk[:, j : j + span : stride] += gcols[:, :, j]
        gx = None
        if gxp is not None:
            gx = gxp[:, padding : padding + length].transpose(0, 2, 1)
            if squeeze:
                gx = gx[0]
        return gx, gw.reshape(kernel.shape)

    return _node(out[0] if squeeze else out, (x, kernel), bw)


def maxpool1d_w2(x) -> Tensor:
    """Non-overlapping width-2 max pool over the last axis (floor semantics).

    Each output keeps the first element of its pair unless the second is
    larger, or is NaN while the first is not: the choice argmax over the pair
    makes, ties going to the first. The gradient goes to the kept element. An
    odd length's trailing element is dropped and gets zero gradient.
    """
    x = as_tensor(x)
    length = x.shape[-1]
    if length < 2:
        raise ShapeError(f"maxpool1d_w2 needs length >= 2, got {length}")
    stop = 2 * (length // 2)
    first, second = x.data[..., 0:stop:2], x.data[..., 1:stop:2]
    keep_first = (first >= second) | np.isnan(first)
    data = np.where(keep_first, first, second)

    def bw(g):
        z = np.zeros_like(x.data)
        z[..., 0:stop:2] = np.where(keep_first, g, 0.0)
        z[..., 1:stop:2] = np.where(keep_first, 0.0, g)
        return (z,)

    return _node(data, (x,), bw)


def dropout_mask(shape, rate: float, rng) -> Tensor:
    """Inverted-dropout mask: entries 0 with probability `rate`, else 1/(1-rate)."""
    from ..errors import ConfigError

    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return constant(np.ones(shape))
    keep = ~rng.bernoulli(rate, shape)
    return constant(keep.astype(np.float64) / (1.0 - rate))
