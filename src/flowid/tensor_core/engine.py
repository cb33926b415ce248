"""Reverse-mode automatic differentiation over dense numpy arrays.

Every tensor holds float64. Two costly ops, conv1d_relu_pool here and
layers.lstm_batch, take a `dtype` for their internal arithmetic; their
outputs and gradients are float64 whatever it is.

The engine is deliberately small: a Tensor wraps an ndarray plus the closure
needed to push gradients to its parents, and `backward` walks the graph once
in reverse topological order. Only the operations the pipeline actually uses
are provided. Inputs are typically constants (no gradient); trainable leaves
are created by ParameterStore and accumulate into their `.grad` array. An op
builds a graph node exactly when one of its operands requires a gradient, so
inference runs on plain tensors (ParameterStore.frozen or copy) and builds none.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ConfigError, ShapeError


class Tensor:
    """Dense float64 array with optional gradient bookkeeping; an op may
    compute in float32 inside (see the module docstring)."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


def needs_grad(*parents: Tensor) -> bool:
    """Whether an op on these operands builds a graph node (see _node): it
    does exactly when one of them requires a gradient."""
    return any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if needs_grad(*parents):
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


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def bw(g):
        return (g * (a.data > 0.0),)

    return _node(data, (a,), bw)


def elu(a) -> Tensor:
    a = as_tensor(a)
    neg = np.exp(np.minimum(a.data, 0.0)) - 1.0
    data = np.where(a.data > 0.0, a.data, neg)

    def bw(g):
        return (g * np.where(a.data > 0.0, 1.0, neg + 1.0),)

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


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(data, tuple(parts), bw)


def pick(a, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """out = a[rows, cols] for a 2-D tensor; index arrays broadcast as in
    numpy, and backward scatters into the originals."""
    a = as_tensor(a)
    idx = (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))
    data = a.data[idx]

    def bw(g):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
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


def tmean(a) -> Tensor:
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bw(g):
        ga = gb = None  # a constant operand (incidence, adjacency) gets none
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad and b.ndim == 2 and a.ndim > 2:  # one GEMM over folded rows
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
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

# Scratch cap for one chunk of flows: its patch matrix, or its GEMM output if
# that is larger. Cache-sized on purpose: bias, ReLU and the pool read a
# chunk's GEMM output right after the matmul writes it, and the backward
# overlap-adds its patch gradient right after the matmul writes that, so a
# chunk still in cache skips a round trip through memory. It also bounds
# conv1d_relu_pool's transient memory per chunk rather than per batch.
_CONV_CHUNK_BYTES = 4 * 1024 * 1024

# Consecutive output positions per GEMM row of conv1d_relu_pool. Both payload
# stages of the paper's geometry (1->16->32 channels, k=25, L=640) at N=300 on
# a 2-core Xeon VM, forward + backward, median of three best-of-7 runs:
# 0.56/0.34/0.32/0.33 s at 1/4/8/16 positions per row in float64; in float32
# (with the attention pool and output layer), median of nine best-of-7 runs
# over chunk caps of 2, 4 and 8 MB: 0.243/0.223/0.231 s at 4/8/16.
_CONV_BLOCK = 8


def _max_pool_pairs(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Width-2 max pool over axis 1 of (N, L, C): (pooled, first-of-pair kept).

    A pair keeps its first element unless the second is larger, or is NaN
    while the first is not: the choice argmax over the pair makes, ties going
    to the first. An odd length's trailing element is dropped.
    """
    stop = 2 * (y.shape[1] // 2)
    first, second = y[:, 0:stop:2], y[:, 1:stop:2]
    keep_first = (first >= second) | np.isnan(first)
    return np.where(keep_first, first, second), keep_first


def _constant_run(a: np.ndarray) -> int:
    """Start of the trailing positions of (N, L, C) `a` that equal a[0, -1] in
    every flow (== per channel, so a NaN never matches); L if there are none."""
    n, length, c = a.shape
    if not a.size:
        return length
    rows = a.reshape(n, length * c)
    same = np.logical_and.reduce(rows == np.tile(rows[0, -c:], length), axis=0)
    differs = np.flatnonzero(~same)
    return int(differs[-1]) // c + 1 if differs.size else 0


def conv1d_relu_pool(x, kernel, bias, padding: int = 0, dtype=np.float64) -> Tensor:
    """One payload-CNN stage: relu(conv1d(x, kernel) + bias), then a width-2 max pool.

    x: channels-last (N, L, C_in); kernel: (C_out, C_in, k); bias: (C_out,).
    The convolution is a stride-1 cross-correlation over zero padding with
    L_out = L + 2*padding - k + 1 positions; the output is
    channels-last (N, floor(L_out/2), C_out), or (N, L_out, C_out) unpooled
    when L_out < 2. The pool is _max_pool_pairs: ties keep the first element
    of a pair, and an odd length's trailing position is dropped and gets zero
    gradient.

    Each GEMM row covers _CONV_BLOCK consecutive output positions: it reads
    the span = block + k - 1 input positions they cover, and multiplies them
    by a block-Toeplitz copy of the kernel of shape (span*C_in, block*C_out).
    The patch matrix is thus block*k/span times smaller than im2col's (6.25
    at k=25), and the GEMM block times wider. Because the Toeplitz zeros
    multiply every input of the span, a non-finite input value makes its
    whole block non-finite.

    Both passes run over chunks of flows that fit in _CONV_CHUNK_BYTES; bias,
    ReLU and the pool run on each chunk while it is in cache. The node keeps
    only the padded input, the output and a bool "first of pair kept" mask;
    the backward rebuilds each chunk's patches, computes the kernel and bias
    gradients and the patch gradient with two GEMMs, and overlap-adds the
    patch gradient into the input gradient one block-aligned slab at a time.
    A constant input (the raw byte stream) gets no input gradient.

    The forward computes a trailing run of identical blocks once. It finds the
    input's trailing positions that hold one value per channel in every flow
    (the byte stream's zero padding in stage 1, relu(b1) after the pool in
    stage 2, compared with == so a NaN never matches). Every block whose span
    lies among them, short of the right zero padding, reads the same patch.
    The GEMM computes the first of these blocks with the blocks before and
    after the run; bias, ReLU and the pool run on the computed blocks alone,
    and that block's pooled rows and "first of pair kept" rows are copied into
    the rest of the run. A chunk whose GEMM this would leave shorter than one
    flow's blocks computes every block. A GEMM row's rounding does not
    depend on the other rows once the GEMM is that tall, and _CONV_BLOCK is
    even so no pool pair crosses a block, so the copies are bitwise what
    computing them would give. The backward rebuilds every block's patches.

    The kernel and bias gradients are summed one chunk at a time, so their
    last bits depend on _CONV_CHUNK_BYTES and _CONV_BLOCK; the output and the
    input gradient of each flow do not depend on the chunking.

    `dtype` is the arithmetic's: the padded input, the Toeplitz kernel, each
    chunk's GEMM output and, in the backward, its gy and patch gradient. The
    output, the kernel gradient (summed over chunks), the bias gradient and the
    input gradient are float64, so only the products round at `dtype`. The
    chunk sizes are counted in its bytes. The bitwise claims above are pinned
    at dtype=float64.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.ndim != 3 or kernel.ndim != 3 or bias.shape != kernel.shape[:1]:
        raise ShapeError(f"conv1d_relu_pool expects (N,L,C_in), (C_out,C_in,k) and (C_out,), "
                         f"got {x.shape}, {kernel.shape}, {bias.shape}")
    n, length, c_in = x.shape
    c_out, kc_in, k = kernel.shape
    if kc_in != c_in:
        raise ShapeError(f"conv1d_relu_pool channel mismatch: input {c_in}, kernel {kc_in}")
    if k < 1 or padding < 0 or length + 2 * padding < k:
        raise ShapeError(f"conv1d_relu_pool geometry invalid: L={length}, k={k}, "
                         f"padding={padding}")
    l_out = length + 2 * padding - k + 1
    pool = l_out >= 2
    stop = 2 * (l_out // 2)

    block = _CONV_BLOCK
    blocks = -(-l_out // block)
    span = block + k - 1       # input positions one block reads
    segs = -(-span // block)   # block-sized slabs of one block's span
    # whole block-sized slabs that hold the padded input and every block's span
    slabs = max(blocks + segs - 1, -(-(length + padding) // block))
    xp = np.zeros((n, slabs * block, c_in), dtype=dtype)
    xp[:, padding : padding + length] = x.data

    toeplitz = np.zeros((span, c_in, block, c_out), dtype=dtype)
    taps = kernel.data.transpose(2, 1, 0)  # (k, C_in, C_out)
    for j in range(block):
        toeplitz[j : j + k, :, j] = taps
    toeplitz = toeplitz.reshape(span * c_in, block * c_out)

    # chunks of flows; at least two GEMM rows each when the batch has two,
    # since numpy runs a one-row product as a matrix-vector product, whose
    # rounding differs from the same row's in a matrix product
    flow_bytes = xp.itemsize * blocks * max(span * c_in, block * c_out)
    chunk = max(1 if blocks > 1 else 2, _CONV_CHUNK_BYTES // flow_bytes)
    bounds = list(range(0, n, chunk)) + [n]
    if blocks == 1 and len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    chunks = list(zip(bounds[:-1], bounds[1:]))

    # the forward computes blocks [0, head) and [end, blocks) and copies block
    # head-1 into [head, end): run blocks, whose spans hold only the input's
    # constant tail, and which lie wholly inside the output
    whole = l_out // block
    run = padding + _constant_run(xp[:, padding : padding + length])
    run_head = -(-run // block) + 1
    run_end = min(whole, (padding + length - span) // block + 1)

    def patches(lo, hi, head=blocks, end=blocks):
        """(flows*blocks, span*C_in) patch matrix of flows lo:hi (a copy),
        of blocks [0, head) and [end, blocks) only if those are given."""
        s0, s1, s2 = xp.strides
        windows = np.lib.stride_tricks.as_strided(
            xp[lo:hi], shape=(hi - lo, blocks, span, c_in),
            strides=(s0, s1 * block, s1, s2), writeable=False)
        if head < end:
            windows = np.concatenate((windows[:, :head], windows[:, end:]), axis=1)
        return windows.reshape(-1, span * c_in)

    half = block // 2
    out = np.empty((n, l_out // 2 if pool else l_out, c_out))
    keep_first = np.empty(out.shape, dtype=bool) if pool else None
    for lo, hi in chunks:
        # BLAS may round a shorter GEMM differently, so none is shorter than a
        # one-flow chunk's, the shortest the chunking makes
        head, end = run_head, run_end
        if head >= end or (hi - lo) * (head + blocks - end) < blocks:
            head = end = whole
        computed = head + blocks - end
        y = (patches(lo, hi, head, end) @ toeplitz).reshape(hi - lo, computed * block, c_out)
        y += bias.data.astype(dtype, copy=False)
        np.maximum(y, 0.0, out=y)
        if not pool:
            out[lo:hi] = y[:, :l_out]
            continue
        for dst, src in zip((out[lo:hi], keep_first[lo:hi]), _max_pool_pairs(y)):
            dst[:, : head * half] = src[:, : head * half]
            if head < end:
                runs = dst[:, head * half : end * half].reshape(hi - lo, end - head, half, c_out)
                runs[:] = src[:, None, (head - 1) * half : head * half]
            dst[:, end * half :] = src[:, head * half : head * half + dst.shape[1] - end * half]

    def bw(g):
        g_toeplitz = np.zeros(toeplitz.shape)
        g_bias = np.zeros(c_out)
        # a constant input (the raw byte stream) needs no gradient
        gxp = np.zeros(xp.shape) if x.requires_grad else None
        for lo, hi in chunks:
            g_out = g[lo:hi] * (out[lo:hi] > 0.0)  # ReLU passes where the kept value is > 0
            g_bias += g_out.sum(axis=(0, 1))
            gy = np.empty((hi - lo, blocks * block, c_out), dtype=dtype)
            if pool:
                gy[:, stop:] = 0.0  # an odd length's last position, and the last block's tail
                pairs = gy[:, :stop].reshape(hi - lo, stop // 2, 2, c_out)
                keep = keep_first[lo:hi]
                np.multiply(g_out, keep, out=pairs[:, :, 0])
                np.multiply(g_out, ~keep, out=pairs[:, :, 1])
            else:
                gy[:, :l_out] = g_out
                gy[:, l_out:] = 0.0
            gy = gy.reshape((hi - lo) * blocks, block * c_out)
            g_toeplitz += patches(lo, hi).T @ gy
            if gxp is None:
                continue
            g_patch = (gy @ toeplitz.T).reshape(hi - lo, blocks, span, c_in)
            gx_slabs = gxp[lo:hi].reshape(hi - lo, slabs, block, c_in)
            for q in range(segs):  # slab q of every block's span
                width = min(block, span - q * block)
                gx_slabs[:, q : q + blocks, :width] += g_patch[:, :, q * block : q * block + width]
        g_taps = np.zeros((k, c_in, c_out))
        g_toeplitz = g_toeplitz.reshape(span, c_in, block, c_out)
        for j in range(block):
            g_taps += g_toeplitz[j : j + k, :, j]
        gx = None if gxp is None else gxp[:, padding : padding + length]
        return gx, g_taps.transpose(2, 1, 0), g_bias

    return _node(out, (x, kernel, bias), bw)


def dropout_mask(shape, rate: float, rng) -> Tensor:
    """Inverted-dropout mask: entries 0 with probability `rate`, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return constant(np.ones(shape))
    keep = ~rng.bernoulli(rate, shape)
    return constant(keep.astype(np.float64) / (1.0 - rate))
