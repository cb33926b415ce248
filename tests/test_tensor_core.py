"""Unit and oracle tests for the tensor engine, layers, optimizer, and grad checker."""

import math
import tracemalloc

import numpy as np
import pytest

import flowid.tensor_core as tc
from flowid.errors import ConfigError, ShapeError
from flowid.rng import Rng
from flowid.tensor_core import ParameterStore
from gradcheck import GradCheckFailure, grad_check


def make_store(**arrays) -> ParameterStore:
    store = ParameterStore()
    for name, arr in arrays.items():
        store.add(name, np.asarray(arr, dtype=np.float64))
    return store


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = tc.matmul(tc.constant(np.eye(2)), tc.constant(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_dot():
    out = tc.matmul(tc.constant([[1.0, 2.0]]), tc.constant([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_triple_loop_oracle():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    out = tc.matmul(tc.constant(a), tc.constant(b))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        tc.matmul(tc.constant(np.ones((2, 3))), tc.constant(np.ones((2, 3))))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 3, 4))
    w = rng.normal(size=(4, 2))
    out = tc.matmul(tc.constant(a), tc.constant(w))
    for i in range(6):
        np.testing.assert_allclose(out.data[i], a[i] @ w, atol=1e-12)


def test_matmul_backward_skips_constant_operands():
    rng = np.random.default_rng(4)
    a, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    g = rng.normal(size=(3, 2))
    ga, gb = tc.matmul(tc.constant(a), tc.Tensor(w, requires_grad=True))._backward(g)
    assert ga is None
    np.testing.assert_allclose(gb, a.T @ g, atol=1e-12)
    ga, gb = tc.matmul(tc.Tensor(a, requires_grad=True), tc.constant(w))._backward(g)
    assert gb is None
    np.testing.assert_allclose(ga, g @ w.T, atol=1e-12)


def test_matmul_batched_weight_gradient_is_the_per_flow_sum():
    # (N, T, d) @ (d, k): the weight gradient is one GEMM over the N*T rows
    rng = np.random.default_rng(5)
    a, w = rng.normal(size=(30, 40, 16)), rng.normal(size=(16, 8))
    g = rng.normal(size=(30, 40, 8))
    _, gb = tc.matmul(tc.constant(a), tc.Tensor(w, requires_grad=True))._backward(g)
    per_flow = sum(a[i].T @ g[i] for i in range(len(a)))
    assert gb.shape == w.shape
    np.testing.assert_allclose(gb, per_flow, rtol=1e-12, atol=1e-12 * np.abs(per_flow).max())


# ---------------------------------------------------------------------------
# conv1d_relu_pool: conv1d + bias + ReLU + width-2 max pool, channels-last
# ---------------------------------------------------------------------------

def _stage(x, w, b, pad=0):
    return tc.conv1d_relu_pool(tc.constant(x), tc.constant(w), tc.constant(b), pad).data


def _identity_stage(a):
    """conv1d_relu_pool with a 1-tap identity kernel and zero bias, which is
    exactly pool(relu(a)) for finite a: the pool stage on its own."""
    c = a.shape[-1]
    return tc.conv1d_relu_pool(tc.Tensor(a, requires_grad=True),
                               tc.constant(np.eye(c)[:, :, None]), tc.constant(np.zeros(c)))


def test_conv1d_hand_example():
    # conv [3, 6, 4, 2] with padding 1, bias -3 -> relu [0, 3, 1, 0] -> pool [3, 1]
    x = np.array([[[1.0], [2.0], [3.0], [-1.0]]])
    out = _stage(x, np.ones((1, 1, 3)), np.array([-3.0]), 1)
    np.testing.assert_allclose(out, [[[3.0], [1.0]]], atol=1e-12)


def test_conv1d_identity_kernel():
    a = np.array([[[2.0], [-1.0], [0.5], [7.0], [-3.0], [-2.0]]])
    out = _identity_stage(a)
    np.testing.assert_array_equal(out.data, [[[2.0], [7.0], [0.0]]])


def test_conv1d_paper_geometry():
    # kernel 25 with padding 12 preserves a length-40 stream; the pool halves it
    rng = np.random.default_rng(0)
    out = _stage(rng.normal(size=(2, 40, 1)), rng.normal(size=(3, 1, 25)), np.zeros(3), 12)
    assert out.shape == (2, 20, 3)


def test_conv1d_bad_geometry():
    with pytest.raises(ShapeError):
        _stage(np.ones((1, 3, 1)), np.ones((1, 1, 6)), np.zeros(1), 1)
    with pytest.raises(ShapeError):  # channel mismatch
        _stage(np.ones((1, 8, 2)), np.ones((1, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):  # unbatched input
        _stage(np.ones((8, 1)), np.ones((1, 1, 3)), np.zeros(1))
    with pytest.raises(ShapeError):  # bias of the wrong length
        _stage(np.ones((1, 8, 1)), np.ones((2, 1, 3)), np.zeros(1))


def _naive_stage(x, w, b, pad, g):
    """Loop reference: output, and the input, kernel and bias gradients for
    output gradient g. Pool pairs go to argmax (ties to the first)."""
    n, length, _ = x.shape
    c_out, _, k = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    l_out = length + 2 * pad - k + 1
    pre = np.zeros((n, l_out, c_out))
    for i in range(n):
        for o in range(l_out):
            patch = xp[i, o : o + k]  # (k, C_in)
            for f in range(c_out):
                pre[i, o, f] = np.sum(patch * w[f].T) + b[f]
    act = np.maximum(pre, 0.0)
    g_pre = np.zeros_like(pre)
    if l_out < 2:
        out = act
        g_pre[:] = g * (pre > 0.0)
    else:
        out = np.zeros((n, l_out // 2, c_out))
        for i in range(n):
            for p in range(l_out // 2):
                for f in range(c_out):
                    kept = 2 * p + int(np.argmax(act[i, 2 * p : 2 * p + 2, f]))
                    out[i, p, f] = act[i, kept, f]
                    g_pre[i, kept, f] = g[i, p, f] * (pre[i, kept, f] > 0.0)
    gxp, gw, gb = np.zeros_like(xp), np.zeros_like(w), g_pre.sum(axis=(0, 1))
    for i in range(n):
        for o in range(l_out):
            patch = xp[i, o : o + k]
            for f in range(c_out):
                gxp[i, o : o + k] += g_pre[i, o, f] * w[f].T
                gw[f] += g_pre[i, o, f] * patch.T
    return out, gxp[:, pad : pad + length], gw, gb


def _channel_major_stage(x, w, b, pad, g):
    """The channel-major im2col formulation of the conv1d this op replaced,
    followed by bias, ReLU and an argmax pool: output and the input, kernel
    and bias gradients."""
    n, length, c_in = x.shape
    c_out, _, k = w.shape
    xp = np.pad(x.transpose(0, 2, 1), ((0, 0), (0, 0), (pad, pad)))
    l_out = length + 2 * pad - k + 1
    cols = np.lib.stride_tricks.as_strided(
        xp, shape=(n, l_out, c_in, k),
        strides=(xp.strides[0], xp.strides[2], xp.strides[1], xp.strides[2]),
    ).reshape(n * l_out, c_in * k)
    w2 = w.reshape(c_out, c_in * k)
    pre = (cols @ w2.T).reshape(n, l_out, c_out) + b
    act = np.maximum(pre, 0.0)
    pairs = act[:, : 2 * (l_out // 2)].reshape(n, l_out // 2, 2, c_out)
    idx = np.argmax(pairs, axis=2)[:, :, None]
    out = np.take_along_axis(pairs, idx, axis=2)[:, :, 0]
    g_pairs = np.zeros_like(pairs)
    np.put_along_axis(g_pairs, idx, g[:, :, None], axis=2)
    g_pre = np.zeros_like(pre)
    g_pre[:, : 2 * (l_out // 2)] = g_pairs.reshape(n, -1, c_out)
    gflat = (g_pre * (pre > 0.0)).reshape(n * l_out, c_out)
    gcols = (gflat @ w2).reshape(n, l_out, c_in, k)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[:, :, j : j + l_out] += gcols[:, :, :, j].transpose(0, 2, 1)
    gx = gxp[:, :, pad : pad + length].transpose(0, 2, 1)
    return out, gx, (gflat.T @ cols).reshape(w.shape), gflat.sum(axis=0)


def _stage_run(x, w, b, pad, g, dtype=np.float64):
    """conv1d_relu_pool output plus input, kernel and bias gradients for
    output gradient g."""
    xt = tc.Tensor(x, requires_grad=True)
    wt, bt = tc.Tensor(w, requires_grad=True), tc.Tensor(b, requires_grad=True)
    out = tc.conv1d_relu_pool(xt, wt, bt, pad, dtype=dtype)
    tc.backward(tc.tsum(out * tc.constant(g)))
    return out.data, xt.grad, wt.grad, bt.grad


# (N, L, C_in), (C_out, C_in, k), padding; n1_s2 is a one-flow batch, and
# s3_nopad an even kernel without padding
CONV_CASES = {
    "s1_cin1_pad": ((5, 23, 1), (3, 1, 5), 2),
    "s1_cin3_nopad": ((5, 23, 3), (4, 3, 5), 0),
    "s1_cin3_pad": ((5, 22, 3), (4, 3, 5), 3),
    "s3_nopad": ((5, 25, 2), (3, 2, 4), 0),
    "n1_s2": ((1, 19, 3), (2, 3, 5), 2),
}


def _conv_case(name):
    x_shape, w_shape, pad = CONV_CASES[name]
    rng = np.random.default_rng(sorted(CONV_CASES).index(name))
    x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
    l_out = x_shape[1] + 2 * pad - w_shape[-1] + 1
    g = rng.normal(size=(x_shape[0], l_out // 2, w_shape[0]))
    return x, w, b, pad, g


@pytest.mark.parametrize("name", sorted(CONV_CASES))
def test_conv1d_single_chunk_matches_channel_major_and_naive(name, monkeypatch):
    x, w, b, pad, g = _conv_case(name)
    monkeypatch.setattr(tc.engine, "_CONV_CHUNK_BYTES", 1 << 40)
    got = _stage_run(x, w, b, pad, g)
    for ref in (_channel_major_stage, _naive_stage):
        for have, want in zip(got, ref(x, w, b, pad, g)):
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)


def _flow_bytes(length, w_shape, pad):
    """One float64 flow's share of the chunk budget, as conv1d_relu_pool computes it."""
    block = tc.engine._CONV_BLOCK
    c_out, c_in, k = w_shape
    blocks = -(-(length + 2 * pad - k + 1) // block)
    span = block + k - 1
    return 8 * blocks * max(span * c_in, block * c_out)


@pytest.mark.parametrize("flows_per_chunk", [1, 2])
@pytest.mark.parametrize("name", sorted(CONV_CASES))
def test_conv1d_chunking_does_not_change_results(name, flows_per_chunk, monkeypatch):
    # N=5 flows: chunks of one flow, and chunks of 2, 2, 1 (not dividing N)
    x, w, b, pad, g = _conv_case(name)
    monkeypatch.setattr(tc.engine, "_CONV_CHUNK_BYTES", 1 << 40)
    whole = _stage_run(x, w, b, pad, g)
    monkeypatch.setattr(tc.engine, "_CONV_CHUNK_BYTES",
                        flows_per_chunk * _flow_bytes(x.shape[1], w.shape, pad))
    out, gx, gw, gb = _stage_run(x, w, b, pad, g)
    np.testing.assert_array_equal(out, whole[0])
    np.testing.assert_array_equal(gx, whole[1])
    # the kernel and bias gradients sum per-chunk partial products, so only
    # their rounding may depend on where the chunks split the batch
    np.testing.assert_allclose(gw, whole[2], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gb, whole[3], rtol=1e-12, atol=1e-12)
    for got, want in zip((out, gx, gw, gb), _naive_stage(x, w, b, pad, g)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# (N, L, C_in), (C_out, C_in, k), padding, and the input's trailing run: its
# length and its value on each channel
TAIL_CASES = {
    "zero_tail": ((4, 64, 1), (3, 1, 5), 2, 40, [0.0]),
    "constant_tail": ((4, 64, 3), (4, 3, 5), 2, 41, [0.6, -0.3, 1.2]),
    "run_ends_mid_block": ((4, 50, 2), (3, 2, 3), 1, 29, [0.5, 0.5]),
    "run_under_one_block": ((4, 40, 2), (3, 2, 3), 1, 6, [0.5, -1.0]),
    "all_constant": ((4, 48, 2), (3, 2, 5), 2, 48, [0.25, 0.0]),
    "all_constant_one_flow": ((1, 48, 2), (3, 2, 5), 2, 48, [0.25, 0.7]),
    "no_padding": ((4, 64, 1), (2, 1, 5), 0, 40, [0.3]),
    "unpooled": ((4, 5, 2), (4, 2, 5), 0, 3, [0.5, 0.2]),
}


@pytest.fixture
def constant_runs(monkeypatch) -> list:
    """engine._constant_run patched to record each run start it returns."""
    runs = []
    scan = tc.engine._constant_run
    monkeypatch.setattr(tc.engine, "_constant_run", lambda a: runs.append(scan(a)) or runs[-1])
    return runs


@pytest.mark.parametrize("several_chunks", [False, True])
@pytest.mark.parametrize("name", sorted(TAIL_CASES))
def test_conv1d_constant_tail_is_bitwise_the_full_computation(name, several_chunks,
                                                              constant_runs, monkeypatch):
    (n, length, c_in), w_shape, pad, tail, value = TAIL_CASES[name]
    rng = np.random.default_rng(sorted(TAIL_CASES).index(name))
    x = rng.normal(size=(n, length, c_in))
    x[:, length - tail :] = value
    w, b = rng.normal(size=w_shape), rng.normal(size=w_shape[0])
    l_out = length + 2 * pad - w_shape[-1] + 1
    g = rng.normal(size=(n, l_out // 2 if l_out >= 2 else l_out, w_shape[0]))
    if several_chunks:  # two flows per chunk
        monkeypatch.setattr(tc.engine, "_CONV_CHUNK_BYTES",
                            2 * _flow_bytes(length, w_shape, pad))
    got = _stage_run(x, w, b, pad, g)
    # one more flow whose tail is random leaves no constant run: the full
    # computation, which must give the first n flows the same bits
    x_full = np.concatenate([x, rng.normal(size=(1, length, c_in))])
    full = _stage_run(x_full, w, b, pad, np.concatenate([g, np.zeros_like(g[:1])]))
    assert constant_runs == [length - tail, length]
    np.testing.assert_array_equal(got[0], full[0][:n])
    # The extra flow's zero output gradient adds exact zeros, but BLAS may
    # round a taller GEMM differently, so the input gradient is bitwise where
    # the extra flow gets a chunk of its own: after an even n in chunks of two
    # flows of more than one block (one-block flows chunk in twos and threes).
    if several_chunks and n % 2 == 0 and l_out > tc.engine._CONV_BLOCK:
        np.testing.assert_array_equal(got[1], full[1][:n])
    for have, want in zip(got[1:], (full[1][:n], full[2], full[3])):
        np.testing.assert_allclose(have, want, rtol=1e-12, atol=1e-12)
    for have, want in zip(got, _naive_stage(x, w, b, pad, g)):
        np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)


def test_conv1d_constant_tail_leaves_no_gemm_shorter_than_one_flow():
    # The paper's stage 2 on one flow: copying its run would leave a 7-row
    # GEMM, which BLAS may round differently from the full computation's.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 320, 16))
    x[:, 20:] = rng.normal(size=16)
    w, b = rng.normal(size=(32, 16, 25)), rng.normal(size=32)
    full = _stage(np.concatenate([x, rng.normal(size=x.shape)]), w, b, 12)
    np.testing.assert_array_equal(_stage(x, w, b, 12), full[:1])


def test_conv1d_nan_tail_is_no_constant_run(constant_runs):
    x = np.ones((2, 40, 1))
    x[:, 20:] = np.nan
    out = _stage(x, np.ones((2, 1, 3)), np.zeros(2), 1)
    assert constant_runs == [40]
    assert np.isnan(out[:, -1]).all() and not np.isnan(out[:, :4]).any()


def _max_rel_error(approx, exact) -> float:
    """Largest absolute error relative to the exact array's largest magnitude."""
    return float(np.abs(approx - exact).max() / np.abs(exact).max())


@pytest.mark.parametrize("c_in, c_out, length", [(1, 16, 640), (16, 32, 320)])
def test_conv1d_float32_agrees_with_float64(c_in, c_out, length):
    # both payload stages of the reference geometry (k = 25, padding 12), at
    # a generic point: no exact ties for the pool to break either way
    rng = np.random.default_rng(c_in)
    x = rng.uniform(0.0, 1.0, (5, length, c_in))
    w = rng.normal(size=(c_out, c_in, 25)) / np.sqrt(c_in * 25)
    b = rng.normal(size=c_out) * 0.1
    g = rng.normal(size=(5, length // 2, c_out))
    exact = _stage_run(x, w, b, 12, g)
    single = _stage_run(x, w, b, 12, g, dtype=np.float32)
    for name, a, e in zip(("output", "input grad", "kernel grad", "bias grad"), single, exact):
        assert a.dtype == np.float64
        assert _max_rel_error(a, e) < (1e-6 if name == "output" else 1e-5), name


def test_conv1d_constant_input_gets_no_gradient():
    rng = np.random.default_rng(1)
    x = tc.constant(rng.normal(size=(2, 9, 1)))
    w = tc.Tensor(rng.normal(size=(2, 1, 3)), requires_grad=True)
    b = tc.Tensor(rng.normal(size=2), requires_grad=True)
    out = tc.conv1d_relu_pool(x, w, b, 1)
    gx, gw, gb = out._backward(np.ones(out.shape))
    assert gx is None
    assert gw.shape == w.shape and gb.shape == b.shape


def test_conv1d_relu_pool_without_pool_when_output_is_short():
    # L_out = (5 - 5)/1 + 1 = 1: conv, bias and ReLU, no pool
    rng = np.random.default_rng(4)
    x, w, b = rng.normal(size=(3, 5, 2)), rng.normal(size=(4, 2, 5)), rng.normal(size=4)
    g = rng.normal(size=(3, 1, 4))
    got = _stage_run(x, w, b, 0, g)
    assert got[0].shape == (3, 1, 4)
    for have, want in zip(got, _naive_stage(x, w, b, 0, g)):
        np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)


def test_conv1d_scratch_memory_is_bounded_per_chunk():
    # paper conv2 geometry at N=64: a whole-batch im2col patch matrix alone
    # would be 64 * 320 * 16 * 25 * 8 B = 65.5 MB
    rng = np.random.default_rng(3)
    x = tc.Tensor(rng.normal(size=(64, 320, 16)), requires_grad=True)
    w = tc.Tensor(rng.normal(size=(32, 16, 25)), requires_grad=True)
    b = tc.Tensor(rng.normal(size=32), requires_grad=True)
    g = tc.constant(rng.normal(size=(64, 160, 32)))
    tracemalloc.start()
    try:
        tc.backward(tc.tsum(tc.conv1d_relu_pool(x, w, b, 12) * g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three 4 MiB chunks (patches, GEMM output or patch gradient, slack) plus
    # three input-sized arrays (padded input, input gradient, slack) and five
    # pooled-output-sized ones (output, product, mask, incoming and outgoing
    # gradients): 32 MiB
    bound = 3 * 4 * 2**20 + 3 * x.data.nbytes + 5 * g.data.nbytes
    assert peak < bound, (peak, bound)


# ---------------------------------------------------------------------------
# the pool stage of conv1d_relu_pool
# ---------------------------------------------------------------------------

def _argmax_pool(a, g):
    """argmax-over-pairs reference on axis 1: pooled values and the input gradient."""
    l2 = a.shape[1] // 2
    pairs = a[:, : 2 * l2].reshape((a.shape[0], l2, 2) + a.shape[2:])
    idx = np.expand_dims(np.argmax(pairs, axis=2), 2)
    values = np.take_along_axis(pairs, idx, axis=2)[:, :, 0]
    zp = np.zeros_like(pairs)
    np.put_along_axis(zp, idx, np.expand_dims(g, 2), axis=2)
    grad = np.zeros_like(a)
    grad[:, : 2 * l2] = zp.reshape((a.shape[0], 2 * l2) + a.shape[2:])
    return values, grad


def _pool_run(a, g):
    """pool(relu(a)) through conv1d_relu_pool and its gradient for g."""
    out = _identity_stage(a)
    x = out._parents[0]
    tc.backward(tc.tsum(out * tc.constant(g)))
    return out.data, x.grad


def test_maxpool_ties_route_gradient_to_first():
    a = np.array([3.0, 3.0, 1.0, 1.0, 2.0, 5.0, 4.0, 4.0])[None, :, None]
    out, grad = _pool_run(a, np.array([10.0, 20.0, 30.0, 40.0])[None, :, None])
    np.testing.assert_array_equal(out[0, :, 0], [3.0, 1.0, 5.0, 4.0])
    np.testing.assert_array_equal(grad[0, :, 0], [10.0, 0.0, 20.0, 0.0, 0.0, 30.0, 40.0, 0.0])


def test_maxpool_odd_trailing_element_is_dropped():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 7, 3))
    g = rng.normal(size=(2, 3, 3))
    out, grad = _pool_run(a, g)
    bumped = a.copy()
    bumped[:, -1] += 100.0
    out_bumped, _ = _pool_run(bumped, g)
    np.testing.assert_array_equal(out_bumped, out)
    np.testing.assert_array_equal(grad[:, -1], np.zeros((2, 3)))


@pytest.mark.parametrize("length", [2, 9, 40])
def test_maxpool_matches_argmax_formulation(length):
    rng = np.random.default_rng(length)
    a = rng.normal(size=(4, length, 3))
    a[0, 1, 0] = a[0, 0, 0]                            # exact tie
    a[1, 1::2] = a[1, 0 : 2 * (length // 2) : 2]       # a whole flow of ties
    g = rng.normal(size=(4, length // 2, 3))
    out, grad = _pool_run(a, g)
    relu = np.maximum(a, 0.0)
    want_out, want_grad = _argmax_pool(relu, g)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(grad, want_grad * (a > 0.0))
    # NaN: argmax keeps a NaN in either slot, and so does the pool
    if length > 2:
        a[2, 0, 0] = np.nan                             # NaN first
        a[2, 3, 1] = np.nan                             # NaN second
        pooled, keep_first = tc.engine._max_pool_pairs(a)
        want_out, _ = _argmax_pool(a, g)
        np.testing.assert_array_equal(pooled, want_out)
        assert keep_first[2, 0, 0] and not keep_first[2, 1, 1]


def test_conv1d_nan_input_poisons_its_block():
    # a non-finite input reaches every output of its GEMM block through the
    # block-Toeplitz zeros, and is never dropped by the pool
    a = np.ones((1, 4 * tc.engine._CONV_BLOCK, 1))
    a[0, 1, 0] = np.nan
    out = _identity_stage(a).data[0, :, 0]
    half = tc.engine._CONV_BLOCK // 2
    assert np.isnan(out[:half]).all()
    np.testing.assert_array_equal(out[half:], 1.0)


# ---------------------------------------------------------------------------
# lstm
# ---------------------------------------------------------------------------

def test_lstm_zero_params_zero_states():
    store = make_store(wx=np.zeros((2, 12)), wh=np.zeros((3, 12)), b=np.zeros(12))
    x = np.random.default_rng(2).normal(size=(5, 2))
    out = tc.lstm_batch(x[None], store.get("wx"), store.get("wh"), store.get("b"))
    # gates are 0.5, the candidate is 0, so the cell and hidden states stay 0
    np.testing.assert_array_equal(out.data, np.zeros((1, 5, 3)))


def test_lstm_single_step_is_one_cell():
    rng = np.random.default_rng(7)
    wx, wh, b = rng.normal(size=(2, 12)), rng.normal(size=(3, 12)), rng.normal(size=12)
    x = rng.normal(size=(1, 2))
    out = tc.lstm_batch(x[None], tc.Tensor(wx), tc.Tensor(wh), tc.Tensor(b)).data[0]

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    gates = x[0] @ wx + b  # h0 = 0
    i, f, g, o = gates[0:3], gates[3:6], gates[6:9], gates[9:12]
    c = sig(i) * np.tanh(g)
    h = sig(o) * np.tanh(c)
    np.testing.assert_allclose(out[0], h, atol=1e-12)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    store = make_store(
        wx=rng.normal(size=(2, 12)) * 0.4,
        wh=rng.normal(size=(3, 12)) * 0.4,
        b=rng.normal(size=12) * 0.2,
    )
    x = rng.normal(size=(4, 2))

    def loss(s):
        h = tc.lstm_batch(x[None], s.get("wx"), s.get("wh"), s.get("b"))
        return tc.tsum(h * h)

    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


def _sigmoid(a):
    """The engine's former sigmoid node."""
    data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g):
        return (g * data * (1.0 - data),)

    return tc.engine._node(data, (a,), bw)


def _tanh(a):
    """The engine's former tanh node."""
    data = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - data * data),)

    return tc.engine._node(data, (a,), bw)


def _reshape(a, shape):
    """The engine's former reshape node."""
    data = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.shape),)

    return tc.engine._node(data, (a,), bw)


def _slice_last(a, start, stop):
    """The engine's former slice_last node."""
    data = a.data[..., start:stop]

    def bw(g):
        z = np.zeros_like(a.data)
        z[..., start:stop] = g
        return (z,)

    return tc.engine._node(data, (a,), bw)


def graph_lstm_reference(inputs, wx, wh, b):
    """lstm_batch as it was built from per-step graph nodes before it was one op."""
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
        i = _sigmoid(_slice_last(gates, 0, hidden))
        f = _sigmoid(_slice_last(gates, hidden, 2 * hidden))
        g = _tanh(_slice_last(gates, 2 * hidden, 3 * hidden))
        o = _sigmoid(_slice_last(gates, 3 * hidden, 4 * hidden))
        c = f * c + i * g
        h = o * _tanh(c)
        states.append(_reshape(h, (n, 1, hidden)))
    return tc.concat(states, axis=1)


def _lstm_case(n, d_in, hidden=64, t_steps=40, seed=0):
    """Inputs like scaled signed packet lengths, every third flow zero-padded
    after a random length, and parameters at the extractor's scale."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(n, t_steps, d_in)) * rng.integers(40, 1500, (n, t_steps, d_in))
    for row in range(0, n, 3):
        x[row, rng.integers(1, t_steps):] = 0.0
    params = (rng.normal(size=(d_in, 4 * hidden)) * 0.3, rng.normal(size=(hidden, 4 * hidden)) * 0.2,
              rng.normal(size=4 * hidden) * 0.1)
    return x / 1500.0, params, rng.normal(size=(n, t_steps, hidden))


def _lstm_run(fn, x, params, upstream):
    """(states, [wx, wh, b gradients]) of sum(states * upstream)."""
    leaves = [tc.Tensor(p.copy(), requires_grad=True) for p in params]
    out = fn(x, *leaves)
    tc.backward(tc.tsum(out * tc.constant(upstream)))
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("n", [1, 30, 300])
def test_lstm_forward_bitwise_matches_graph_reference(n):
    x, params, _ = _lstm_case(n, d_in=1)
    leaves = [tc.Tensor(p) for p in params]
    np.testing.assert_array_equal(tc.lstm_batch(x, *leaves).data,
                                  graph_lstm_reference(x, *leaves).data)


@pytest.mark.parametrize("d_in", [1, 2])
def test_lstm_gradients_match_graph_reference(d_in):
    x, params, upstream = _lstm_case(30, d_in, hidden=8, t_steps=12, seed=d_in)
    states, grads = _lstm_run(tc.lstm_batch, x, params, upstream)
    ref_states, ref_grads = _lstm_run(graph_lstm_reference, x, params, upstream)
    np.testing.assert_allclose(states, ref_states, rtol=0, atol=1e-15)
    for name, got, want in zip(("wx", "wh", "b"), grads, ref_grads):
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-12, (name, rel)


@pytest.mark.parametrize("seed", [0, 1])
def test_lstm_float32_agrees_with_float64(seed):
    x, params, upstream = _lstm_case(60, d_in=1, seed=seed)
    exact_states, exact_grads = _lstm_run(tc.lstm_batch, x, params, upstream)
    states, grads = _lstm_run(lambda *a: tc.lstm_batch(*a, dtype=np.float32), x, params, upstream)
    assert states.dtype == np.float64 and _max_rel_error(states, exact_states) < 1e-6
    for grad, exact in zip(grads, exact_grads):
        assert grad.dtype == np.float64 and _max_rel_error(grad, exact) < 1e-5


def test_lstm_batch_split_invariance():
    x, params, _ = _lstm_case(31, d_in=1, hidden=8, t_steps=12, seed=5)
    leaves = [tc.Tensor(p) for p in params]
    whole = tc.lstm_batch(x, *leaves).data
    halves = np.concatenate([tc.lstm_batch(x[:15], *leaves).data,
                             tc.lstm_batch(x[15:], *leaves).data])
    np.testing.assert_allclose(whole, halves, rtol=0, atol=1e-12)


def test_lstm_float32_saturated_gate_is_zero_under_raising_errstate():
    # pre-activation -100: exp(100) overflows float32, the sigmoid's limit is 0
    x = np.zeros((2, 3, 1))
    wx, wh = tc.Tensor(np.zeros((1, 8))), tc.Tensor(np.zeros((2, 8)))
    b = tc.Tensor(np.full(8, -100.0))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = tc.lstm_batch(x, wx, wh, b, dtype=np.float32)
    np.testing.assert_array_equal(out.data, np.zeros((2, 3, 2)))
    assert out.data.dtype == np.float64


def _retained_bytes(fn):
    """(result, bytes still allocated since the call began, result included)."""
    tracemalloc.start()
    try:
        out = fn()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained


def test_lstm_inference_keeps_no_graph_or_buffers():
    x, params, _ = _lstm_case(100, d_in=1, seed=6)
    leaves = [tc.Tensor(p) for p in params]
    out, retained = _retained_bytes(lambda: tc.lstm_batch(x, *leaves))
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert retained < out.data.nbytes + 2**16, (retained, out.data.nbytes)


def test_lstm_retained_memory_bound_at_reference_size():
    # N = 300 flows of 40 steps, H = 64: the gates (4 state-sized arrays),
    # the cells (with the zero initial one), tanh(c), the returned states and
    # the time-major inputs; the per-step graph held about 26 state-sized arrays
    x, params, _ = _lstm_case(300, d_in=1, seed=7)
    leaves = [tc.Tensor(p, requires_grad=True) for p in params]
    out, retained = _retained_bytes(lambda: tc.lstm_batch(x, *leaves))
    assert out.requires_grad
    states = out.data.nbytes
    bound = 7 * states + states // 40 + x.nbytes + 2**16
    assert retained < bound, (retained, bound)


# ---------------------------------------------------------------------------
# attention pooling
# ---------------------------------------------------------------------------

def _attn_params(rng):
    return (
        tc.Tensor(rng.normal(size=(3, 2))),
        tc.Tensor(rng.normal(size=2)),
        tc.Tensor(rng.normal(size=2)),
    )


def _attend(states, w, b, v):
    """Attention pooling of one (T, d) sequence."""
    return tc.attention_pool_batch(tc.constant(states[None]), w, b, v).data[0]


def test_attention_identical_states_passthrough():
    rng = np.random.default_rng(21)
    w, b, v = _attn_params(rng)
    s = rng.normal(size=3)
    out = _attend(np.tile(s, (4, 1)), w, b, v)
    np.testing.assert_allclose(out, s, atol=1e-12)


def test_attention_single_state():
    rng = np.random.default_rng(22)
    w, b, v = _attn_params(rng)
    s = rng.normal(size=(1, 3))
    out = _attend(s, w, b, v)
    np.testing.assert_allclose(out, s[0], atol=1e-12)


def test_attention_hand_softmax():
    # params engineered so the scores are exactly (log 3, log 1)
    w = tc.constant([[1.0], [0.0]])
    b = tc.constant([0.0])
    v = tc.constant([math.log(3.0) / math.tanh(1.0)])
    s1, s2 = np.array([1.0, 5.0]), np.array([0.0, -2.0])
    out = _attend(np.stack([s1, s2]), w, b, v)
    np.testing.assert_allclose(out, 0.75 * s1 + 0.25 * s2, atol=1e-12)


def graph_attention_reference(states, w, b, v):
    """attention_pool_batch as it was built from graph nodes before it was one op."""
    n, t_steps, _ = states.shape
    da = w.shape[1]
    hidden = _tanh(tc.matmul(states, w) + b)
    scores = tc.matmul(hidden, _reshape(tc.as_tensor(v), (da, 1)))
    weights = tc.softmax_last(_reshape(scores, (n, t_steps)))
    return tc.tsum(states * _reshape(weights, (n, t_steps, 1)), axis=1)


def _attention_case(n, t_steps, d, seed):
    rng = np.random.default_rng(seed)
    arrays = (rng.normal(size=(n, t_steps, d)), rng.normal(size=(d, d)) / np.sqrt(d),
              0.1 * rng.normal(size=d), rng.normal(size=d) / np.sqrt(d))
    return arrays, rng.normal(size=(n, d))


@pytest.mark.parametrize("n, t_steps, d", [(300, 160, 32), (30, 40, 64)])
def test_attention_matches_graph_reference(n, t_steps, d):
    # the payload (N = 300, T = 160, d = 32) and temporal (T = 40, H = 64) pools
    arrays, g = _attention_case(n, t_steps, d, seed=n)
    results = []
    for pool in (tc.attention_pool_batch, graph_attention_reference):
        leaves = [tc.Tensor(a, requires_grad=True) for a in arrays]
        out = pool(*leaves)
        tc.backward(tc.tsum(out * tc.constant(g)))
        results.append((out.data, [leaf.grad for leaf in leaves]))
    (fused, fused_grads), (graph, graph_grads) = results
    np.testing.assert_array_equal(fused, graph)
    for name, got, want in zip(("states", "w", "b", "v"), fused_grads, graph_grads):
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 1e-13, (name, err)


def test_attention_constant_states_get_no_gradient():
    arrays, g = _attention_case(4, 5, 3, seed=1)
    states = tc.constant(arrays[0])
    out = tc.attention_pool_batch(states, *(tc.Tensor(a, requires_grad=True) for a in arrays[1:]))
    d_states, d_w, d_b, d_v = out._backward(g)
    assert d_states is None and d_w.shape == (3, 3) and d_b.shape == d_v.shape == (3,)


def test_attention_retained_memory_bound():
    # the node keeps tanh(W s + b) and the weights; the graph kept three
    # (N, T, d_a) arrays and one (N, T, d) array besides
    n, t_steps, d = 300, 160, 32
    arrays, _ = _attention_case(n, t_steps, d, seed=2)
    leaves = [tc.Tensor(a, requires_grad=True) for a in arrays]
    out, retained = _retained_bytes(lambda: tc.attention_pool_batch(*leaves))
    assert out.requires_grad
    bound = n * t_steps * d * 8 + 4 * n * t_steps * 8 + out.data.nbytes + 2**16
    assert retained < bound, (retained, bound)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = tc.softmax_last(tc.constant([0.0, 0.0])).data
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_softmax_large_logits_stable():
    out = tc.softmax_last(tc.constant([1000.0, 1000.0])).data
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)
    assert np.all(np.isfinite(out))


def test_softmax_hand_values():
    logits = np.log(np.array([2.0, 1.0, 1.0]))
    out = tc.softmax_last(tc.constant(logits)).data
    np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(6, 5)) * 10
    out = tc.softmax_last(tc.constant(x)).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-9)
    assert np.all(out > 0.0) and np.all(out <= 1.0)
    shifted = tc.softmax_last(tc.constant(x + 123.456)).data
    np.testing.assert_allclose(out, shifted, atol=1e-9)


# ---------------------------------------------------------------------------
# activations: closed forms at -1, 0, 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
def test_activation_closed_forms(x):
    t = tc.constant([x])
    assert abs(tc.relu(t).data[0] - max(x, 0.0)) <= 1e-12
    assert abs(_tanh(t).data[0] - math.tanh(x)) <= 1e-12
    expected_elu = x if x > 0 else math.exp(x) - 1.0
    assert abs(tc.elu(t).data[0] - expected_elu) <= 1e-12


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_rate_zero_is_ones():
    mask = tc.dropout_mask((4, 5), 0.0, Rng(1))
    np.testing.assert_array_equal(mask.data, np.ones((4, 5)))


def test_dropout_statistics_within_binomial_bound():
    n = 100_000
    for rate in (0.2, 0.4):
        mask = tc.dropout_mask((n,), rate, Rng(77).child("drop"))
        zeros = int(np.sum(mask.data == 0.0))
        sigma = math.sqrt(n * rate * (1 - rate))
        assert abs(zeros - n * rate) <= 3 * sigma
        kept = mask.data[mask.data != 0.0]
        np.testing.assert_allclose(kept, 1.0 / (1.0 - rate))


def test_dropout_invalid_rate():
    with pytest.raises(ConfigError):
        tc.dropout_mask((2,), 1.0, Rng(0))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_first_step_hand_value():
    store = make_store(w=np.array([0.0]))
    store.get("w").grad[...] = 1.0
    tc.Adam(lr=0.002, weight_decay=0.0).step(store)
    # m_hat = v_hat = 1 after bias correction, so the step is -lr/(1+eps)
    assert abs(store.get("w").data[0] + 0.002) <= 1e-9


def test_adam_zero_grad_fixed_point():
    store = make_store(w=np.array([1.5, -2.0]))
    tc.Adam(lr=0.002, weight_decay=0.0).step(store)
    np.testing.assert_array_equal(store.get("w").data, [1.5, -2.0])


def test_adam_determinism():
    def run():
        store = make_store(w=np.array([0.3, -0.7]), b=np.array([0.1]))
        opt = tc.Adam(lr=0.01, weight_decay=1e-3)
        for step in range(5):
            store.get("w").grad[...] = [0.2, -0.1]
            store.get("b").grad[...] = [0.05 * (step + 1)]
            opt.step(store)
        return store.get("w").data.copy(), store.get("b").data.copy()

    w1, b1 = run()
    w2, b2 = run()
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(b1, b2)


def test_adam_matches_textbook_expression_bitwise():
    rng = np.random.default_rng(17)
    lr, wd = 0.002, 1e-2
    shapes = {"w": (6, 5), "b": (5,), "alpha": (1,)}
    # parameters of the step's size, so the update's last bits survive the subtraction
    store = make_store(**{k: lr * rng.normal(size=sh) for k, sh in shapes.items()})
    want = {k: t.data.copy() for k, t in store.items()}
    m = {k: np.zeros(sh) for k, sh in shapes.items()}
    v = {k: np.zeros(sh) for k, sh in shapes.items()}
    opt = tc.Adam(lr=lr, weight_decay=wd)
    for t in range(1, 4):
        for k, p in store.items():
            p.grad[...] = rng.normal(size=shapes[k])
            g = p.grad.copy()
            want[k] = want[k] - lr * wd * want[k]
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            m_hat = m[k] / (1.0 - 0.9 ** t)
            v_hat = v[k] / (1.0 - 0.999 ** t)
            want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        opt.step(store)
        for k, p in store.items():
            np.testing.assert_array_equal(p.data, want[k])
            np.testing.assert_array_equal(opt.m[k], m[k])
            np.testing.assert_array_equal(opt.v[k], v[k])


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------

def test_grad_check_sum_of_squares_is_tight():
    store = make_store(w=np.array([[0.5, -1.2], [2.0, 0.1]]))

    def loss(s):
        return tc.tsum(s.get("w") * s.get("w"))

    report = grad_check(loss, store, h=1e-5, tol=1e-8)
    assert report.passed, report.max_rel_error


def test_grad_check_flags_corrupted_gradient():
    store = make_store(w=np.array([0.5, -1.2]))

    def loss(s):
        return tc.tsum(s.get("w") * s.get("w"))

    def bad_grads(s):
        return {"w": 2.0 * s.get("w").data + 1.0}

    report = grad_check(loss, store, tol=1e-4, grads_fn=bad_grads)
    assert not report.passed
    assert report.max_rel_error > 1e-4


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_grad_check_nonfinite_objective():
    store = make_store(w=np.array([0.0]))

    def loss(s):
        return tc.log(s.get("w"))  # log(0) = -inf

    with pytest.raises(GradCheckFailure):
        grad_check(loss, store)


# ---------------------------------------------------------------------------
# finite-difference sweep over every differentiable operation
# ---------------------------------------------------------------------------

def _sum_squares(t):
    return tc.tsum(t * t)


def _op_cases():
    rng = np.random.default_rng(99)
    x55 = rng.normal(size=(5, 5))
    cases = {
        "matmul": (
            {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3, 5))},
            lambda s: tc.tsum(tc.matmul(s.get("a"), s.get("b"))),
        ),
        "batched_matmul": (
            {"w": rng.normal(size=(3, 2))},
            lambda s: _sum_squares(tc.matmul(
                tc.constant(np.random.default_rng(1).normal(size=(4, 5, 3))), s.get("w"))),
        ),
        "add_broadcast": (
            {"a": x55.copy(), "b": rng.normal(size=(1, 5))},
            lambda s: tc.tsum((s.get("a") + s.get("b")) * (s.get("a") + s.get("b"))),
        ),
        "mul_div": (
            {"a": x55.copy(), "b": np.abs(rng.normal(size=(5, 5))) + 1.0},
            lambda s: tc.tsum(s.get("a") * s.get("a") / s.get("b")),
        ),
        "activations": (
            {"a": x55.copy() + 0.05},
            lambda s: tc.tsum(tc.relu(s.get("a")) + tc.elu(s.get("a")) + _tanh(s.get("a"))),
        ),
        "log_sqrt": (
            {"a": np.abs(x55) + 0.5},
            lambda s: tc.tsum(tc.log(s.get("a")) + tc.sqrt(s.get("a"))),
        ),
        "softmax": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.softmax_last(s.get("a"))
                              * tc.constant(np.random.default_rng(42).normal(size=(5, 5)))),
        ),
        "logsumexp": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.logsumexp_last(s.get("a"))),
        ),
        # columns 1:5 picked as rows of the transpose, row 2 and entry (4, 1)
        # twice so that the scatter adds, then zero-padded
        "concat_slice_pad": (
            {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 2))},
            lambda s: _sum_squares(tc.concat([tc.constant(np.zeros((3, 1))), tc.transpose2d(
                tc.pick(tc.transpose2d(tc.concat([s.get("a"), s.get("b")], axis=1)),
                        np.array([[1], [2], [2], [4]]),
                        np.array([[0, 1, 2], [2, 1, 0], [0, 1, 2], [1, 1, 2]]))),
                tc.constant(np.zeros((3, 2)))], axis=1)),
        ),
        "reductions": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.tmean(s.get("a") * s.get("a")) * tc.tsum(s.get("a"), axis=1))
        ),
        "conv1d_relu_pool": (  # L_out = 5: two pooled pairs and a dropped odd position
            {"x": rng.normal(size=(2, 5, 2)), "k": rng.normal(size=(3, 2, 3)),
             "b": rng.normal(size=3)},
            lambda s: _sum_squares(tc.conv1d_relu_pool(
                s.get("x"), s.get("k"), s.get("b"), padding=1)),
        ),
        "clamp": (
            {"a": np.array([[-0.5, 0.3, 0.9, 1.7]])},
            lambda s: _sum_squares(tc.clamp(s.get("a"), 0.0, 1.0)),
        ),
        "attention": (
            {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2), "v": rng.normal(size=2)},
            lambda s: _sum_squares(tc.attention_pool_batch(
                tc.constant(np.random.default_rng(8).normal(size=(2, 4, 3))),
                s.get("w"), s.get("b"), s.get("v"))),
        ),
        "attention_states": (
            {"s": rng.normal(size=(2, 4, 3)), "w": rng.normal(size=(3, 2)),
             "b": rng.normal(size=2), "v": rng.normal(size=2)},
            lambda s: _sum_squares(tc.attention_pool_batch(
                s.get("s"), s.get("w"), s.get("b"), s.get("v"))),
        ),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_op_gradients_match_finite_differences(name):
    arrays, loss = _op_cases()[name]
    store = make_store(**arrays)
    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, f"{name}: {report.worst()}"


def test_backward_requires_scalar():
    t = tc.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        tc.backward(t + t)


def test_frozen_view_shares_arrays_and_builds_no_graph():
    store = make_store(w=np.ones(3))
    view = store.frozen()
    w = view.get("w")
    assert w.data is store.get("w").data
    assert w.grad is None and not w.requires_grad
    store.get("w").data *= 2.0  # an in-place update, as Adam's, shows through
    out = tc.tsum(w * w)
    assert out.data == 12.0
    assert not out.requires_grad and out._parents == () and out._backward is None


def test_parameter_store_contracts():
    store = make_store(w=np.ones((2, 2)))
    assert store.get("w").grad.shape == (2, 2)
    with pytest.raises(ConfigError):
        store.add("w", np.ones(1))
    with pytest.raises(ConfigError):
        store.get("missing")
    clone = store.copy()
    clone.get("w").data[...] = 0.0
    assert store.get("w").data[0, 0] == 1.0
    # a copy holds the values only, like a loaded checkpoint
    assert clone.get("w").grad is None and not clone.get("w").requires_grad
