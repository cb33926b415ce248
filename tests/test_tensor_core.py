"""Unit and oracle tests for the tensor engine, layers, optimizer, and grad checker."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

import flowid.tensor_core as tc
from flowid.errors import ConfigError, ShapeError
from flowid.rng import Rng
from flowid.tensor_core import GradCheckFailure, ParameterStore, grad_check


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


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def test_conv1d_hand_example():
    x = tc.constant([[1.0, 2.0, 3.0]])
    k = tc.constant(np.ones((1, 1, 3)))
    out = tc.conv1d(x, k, stride=1, padding=1)
    np.testing.assert_allclose(out.data, [[3.0, 6.0, 5.0]], atol=1e-12)


def test_conv1d_identity_kernel():
    x = tc.constant([[2.0, -1.0, 0.5, 7.0]])
    k = tc.constant([[[1.0]]])
    out = tc.conv1d(x, k, stride=1, padding=0)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_paper_geometry():
    # kernel 25, stride 1, padding 12 preserves a length-40 stream
    x = tc.constant(np.random.default_rng(0).normal(size=(1, 40)))
    k = tc.constant(np.random.default_rng(1).normal(size=(2, 1, 25)))
    out = tc.conv1d(x, k, stride=1, padding=12)
    assert out.shape == (2, 40)


def test_conv1d_bad_geometry():
    with pytest.raises(ShapeError):
        tc.conv1d(tc.constant(np.ones((1, 3))), tc.constant(np.ones((1, 1, 6))), 1, 1)


def test_conv1d_stride_matches_naive():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 11))
    w = rng.normal(size=(4, 3, 3))
    stride, pad = 2, 1
    out = tc.conv1d(tc.constant(x), tc.constant(w), stride, pad).data
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    l_out = (11 + 2 * pad - 3) // stride + 1
    naive = np.zeros((2, 4, l_out))
    for n in range(2):
        for f in range(4):
            for o in range(l_out):
                naive[n, f, o] = np.sum(xp[n, :, o * stride : o * stride + 3] * w[f])
    np.testing.assert_allclose(out, naive, atol=1e-12)


def _conv_run(x, w, stride, pad, g):
    """conv1d output plus input and kernel gradients for output gradient g."""
    xt, wt = tc.Tensor(x, requires_grad=True), tc.Tensor(w, requires_grad=True)
    out = tc.conv1d(xt, wt, stride, pad)
    tc.backward(tc.tsum(out * tc.constant(g)))
    return out.data, xt.grad, wt.grad


def _conv_naive_grads(x, w, stride, pad, g):
    """Loop reference: output, input gradient and kernel gradient."""
    xb, gb = (x[None], g[None]) if x.ndim == 2 else (x, g)
    n, _, length = xb.shape
    c_out, _, k = w.shape
    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad)))
    l_out = gb.shape[-1]
    out, gxp, gw = np.zeros(gb.shape), np.zeros_like(xp), np.zeros_like(w)
    for i in range(n):
        for f in range(c_out):
            for o in range(l_out):
                patch = xp[i, :, o * stride : o * stride + k]
                out[i, f, o] = np.sum(patch * w[f])
                gxp[i, :, o * stride : o * stride + k] += gb[i, f, o] * w[f]
                gw[f] += gb[i, f, o] * patch
    gx = gxp[:, :, pad : pad + length]
    return (out[0], gx[0], gw) if x.ndim == 2 else (out, gx, gw)


def _conv_channel_major_grads(x, w, stride, pad, g):
    """The channel-major backward conv1d used before its tap-major rewrite,
    one chunk: column gradient as (rows, C_in, k), one strided add per tap."""
    xb, gb = (x[None], g[None]) if x.ndim == 2 else (x, g)
    n, c_in, length = xb.shape
    c_out, _, k = w.shape
    l_out = gb.shape[-1]
    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad)))
    w2 = w.reshape(c_out, c_in * k)
    gflat = gb.transpose(0, 2, 1).reshape(n * l_out, c_out)
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, l_out, c_in, k),
        strides=(xp.strides[0], xp.strides[2] * stride, xp.strides[1], xp.strides[2]))
    gw = np.zeros_like(w2)
    gw += gflat.T @ windows.reshape(n * l_out, c_in * k)
    gcols = (gflat @ w2).reshape(n, l_out, c_in, k)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[:, :, j : j + stride * l_out : stride] += gcols[:, :, :, j].transpose(0, 2, 1)
    gx = gxp[:, :, pad : pad + length]
    return (gx[0] if x.ndim == 2 else gx), gw.reshape(w.shape)


CONV_CASES = {
    "s1_cin1_pad": ((5, 1, 23), (3, 1, 5), 1, 2),
    "s1_cin3_nopad": ((5, 3, 23), (4, 3, 5), 1, 0),
    "s1_cin3_pad": ((5, 3, 22), (4, 3, 5), 1, 3),
    "s2_pad": ((5, 2, 24), (3, 2, 4), 2, 1),
    "s3_nopad": ((5, 2, 25), (3, 2, 4), 3, 0),
    "unbatched_s2": ((3, 19), (2, 3, 5), 2, 2),
}


def _conv_case(name):
    x_shape, w_shape, stride, pad = CONV_CASES[name]
    rng = np.random.default_rng(sorted(CONV_CASES).index(name))
    x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
    l_out = (x_shape[-1] + 2 * pad - w_shape[-1]) // stride + 1
    g = rng.normal(size=x_shape[:-2] + (w_shape[0], l_out))
    return x, w, stride, pad, g


@pytest.mark.parametrize("name", sorted(CONV_CASES))
def test_conv1d_single_chunk_matches_channel_major_and_naive(name, monkeypatch):
    x, w, stride, pad, g = _conv_case(name)
    monkeypatch.setattr(tc.engine, "_CONV_CHUNK_BYTES", 1 << 40)
    out, gx, gw = _conv_run(x, w, stride, pad, g)
    ref_gx, ref_gw = _conv_channel_major_grads(x, w, stride, pad, g)
    np.testing.assert_array_equal(gx, ref_gx)
    np.testing.assert_array_equal(gw, ref_gw)
    for got, want in zip((out, gx, gw), _conv_naive_grads(x, w, stride, pad, g)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("flows_per_chunk", [1, 2])
@pytest.mark.parametrize("name", sorted(CONV_CASES))
def test_conv1d_chunking_does_not_change_results(name, flows_per_chunk, monkeypatch):
    # N=5 flows: chunks of one flow, and chunks of 2, 2, 1 (not dividing N)
    x, w, stride, pad, g = _conv_case(name)
    monkeypatch.setattr(tc.engine, "_CONV_CHUNK_BYTES", 1 << 40)
    whole = _conv_run(x, w, stride, pad, g)
    c_in, k = w.shape[1:]
    flow_bytes = 8 * g.shape[-1] * c_in * k
    monkeypatch.setattr(tc.engine, "_CONV_CHUNK_BYTES", flows_per_chunk * flow_bytes)
    out, gx, gw = _conv_run(x, w, stride, pad, g)
    np.testing.assert_array_equal(out, whole[0])
    np.testing.assert_array_equal(gx, whole[1])
    # the kernel gradient sums per-chunk partial products, so only its
    # rounding may depend on where the chunks split the batch
    np.testing.assert_allclose(gw, whole[2], rtol=1e-12, atol=1e-12)
    for got, want in zip((out, gx, gw), _conv_naive_grads(x, w, stride, pad, g)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_conv1d_constant_input_gets_no_gradient():
    x = tc.constant(np.random.default_rng(1).normal(size=(2, 1, 9)))
    w = tc.Tensor(np.random.default_rng(2).normal(size=(2, 1, 3)), requires_grad=True)
    out = tc.conv1d(x, w, 1, 1)
    gx, gw = out._backward(np.ones(out.shape))
    assert gx is None
    assert gw.shape == w.shape


def test_conv1d_scratch_memory_is_bounded_per_chunk():
    # paper conv2 geometry at N=64: a whole-batch patch matrix alone would be
    # 64 * 320 * 16 * 25 * 8 B = 65.5 MB
    rng = np.random.default_rng(3)
    x = tc.Tensor(rng.normal(size=(64, 16, 320)), requires_grad=True)
    w = tc.Tensor(rng.normal(size=(32, 16, 25)), requires_grad=True)
    g = tc.constant(rng.normal(size=(64, 32, 320)))
    tracemalloc.start()
    try:
        tc.backward(tc.tsum(tc.conv1d(x, w, 1, 12) * g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three 4 MiB chunks (patches, column gradient, slack) plus four
    # input-sized arrays (padded input, input gradient) and four output-sized
    # ones (output, product, incoming and outgoing gradients): 42 MiB
    bound = 3 * 4 * 2**20 + 4 * x.data.nbytes + 4 * g.data.nbytes
    assert peak < bound, (peak, bound)


# ---------------------------------------------------------------------------
# maxpool1d_w2
# ---------------------------------------------------------------------------

def _argmax_pool(a, g):
    """argmax-over-pairs reference: pooled values and the input gradient."""
    l2 = a.shape[-1] // 2
    pairs = a[..., : 2 * l2].reshape(a.shape[:-1] + (l2, 2))
    idx = np.argmax(pairs, axis=-1)[..., None]
    values = np.take_along_axis(pairs, idx, axis=-1)[..., 0]
    zp = np.zeros_like(pairs)
    np.put_along_axis(zp, idx, g[..., None], axis=-1)
    grad = np.zeros_like(a)
    grad[..., : 2 * l2] = zp.reshape(a.shape[:-1] + (2 * l2,))
    return values, grad


def _pool_run(a, g):
    x = tc.Tensor(a, requires_grad=True)
    out = tc.maxpool1d_w2(x)
    tc.backward(tc.tsum(out * tc.constant(g)))
    return out.data, x.grad


def test_maxpool_ties_route_gradient_to_first():
    a = np.array([[3.0, 3.0, 1.0, 1.0, 2.0, 5.0, -4.0, -4.0]])
    out, grad = _pool_run(a, np.array([[10.0, 20.0, 30.0, 40.0]]))
    np.testing.assert_array_equal(out, [[3.0, 1.0, 5.0, -4.0]])
    np.testing.assert_array_equal(grad, [[10.0, 0.0, 20.0, 0.0, 0.0, 30.0, 40.0, 0.0]])


def test_maxpool_odd_trailing_element_is_dropped():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 3, 7))
    g = rng.normal(size=(2, 3, 3))
    out, grad = _pool_run(a, g)
    bumped = a.copy()
    bumped[..., -1] += 100.0
    out_bumped, _ = _pool_run(bumped, g)
    np.testing.assert_array_equal(out_bumped, out)
    np.testing.assert_array_equal(grad[..., -1], np.zeros((2, 3)))


@pytest.mark.parametrize("length", [2, 9, 40])
def test_maxpool_matches_argmax_formulation(length):
    rng = np.random.default_rng(length)
    a = rng.normal(size=(4, 3, length))
    a[0, 0, 1] = a[0, 0, 0]            # exact tie
    a[1, :, 1::2] = a[1, :, 0:2 * (length // 2):2]  # a whole row of ties
    if length > 2:
        a[2, 0, 0] = np.nan                # NaN first: argmax keeps it
        a[2, 1, 3] = np.nan                # NaN second: argmax keeps it too
    g = rng.normal(size=(4, 3, length // 2))
    out, grad = _pool_run(a, g)
    want_out, want_grad = _argmax_pool(a, g)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(grad, want_grad)


# ---------------------------------------------------------------------------
# lstm
# ---------------------------------------------------------------------------

def test_lstm_zero_params_zero_states():
    store = make_store(wx=np.zeros((2, 12)), wh=np.zeros((3, 12)), b=np.zeros(12))
    x = np.random.default_rng(2).normal(size=(5, 2))
    out = tc.lstm_forward(x, store.get("wx"), store.get("wh"), store.get("b"))
    # gates are 0.5, the candidate is 0, so the cell and hidden states stay 0
    np.testing.assert_array_equal(out.data, np.zeros((5, 3)))


def test_lstm_single_step_is_one_cell():
    rng = np.random.default_rng(7)
    wx, wh, b = rng.normal(size=(2, 12)), rng.normal(size=(3, 12)), rng.normal(size=12)
    x = rng.normal(size=(1, 2))
    out = tc.lstm_forward(x, tc.Tensor(wx), tc.Tensor(wh), tc.Tensor(b)).data

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
        h = tc.lstm_forward(x, s.get("wx"), s.get("wh"), s.get("b"))
        return tc.tsum(h * h)

    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# attention pooling
# ---------------------------------------------------------------------------

def _attn_params(rng):
    return (
        tc.Tensor(rng.normal(size=(3, 2))),
        tc.Tensor(rng.normal(size=2)),
        tc.Tensor(rng.normal(size=2)),
    )


def test_attention_identical_states_passthrough():
    rng = np.random.default_rng(21)
    w, b, v = _attn_params(rng)
    s = rng.normal(size=3)
    states = tc.constant(np.tile(s, (4, 1)))
    out = tc.attention_pool(states, w, b, v)
    np.testing.assert_allclose(out.data, s, atol=1e-12)


def test_attention_single_state():
    rng = np.random.default_rng(22)
    w, b, v = _attn_params(rng)
    s = rng.normal(size=(1, 3))
    out = tc.attention_pool(tc.constant(s), w, b, v)
    np.testing.assert_allclose(out.data, s[0], atol=1e-12)


def test_attention_hand_softmax():
    # params engineered so the scores are exactly (log 3, log 1)
    w = tc.constant([[1.0], [0.0]])
    b = tc.constant([0.0])
    v = tc.constant([math.log(3.0) / math.tanh(1.0)])
    s1, s2 = np.array([1.0, 5.0]), np.array([0.0, -2.0])
    out = tc.attention_pool(tc.constant(np.stack([s1, s2])), w, b, v)
    np.testing.assert_allclose(out.data, 0.75 * s1 + 0.25 * s2, atol=1e-12)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(tc.softmax(tc.constant([0.0, 0.0])).data, [0.5, 0.5], atol=1e-12)


def test_softmax_large_logits_stable():
    out = tc.softmax(tc.constant([1000.0, 1000.0])).data
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)
    assert np.all(np.isfinite(out))


def test_softmax_hand_values():
    logits = np.log(np.array([2.0, 1.0, 1.0]))
    out = tc.softmax(tc.constant(logits)).data
    np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(6, 5)) * 10
    out = tc.softmax(tc.constant(x)).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-9)
    assert np.all(out > 0.0) and np.all(out <= 1.0)
    shifted = tc.softmax(tc.constant(x + 123.456)).data
    np.testing.assert_allclose(out, shifted, atol=1e-9)


# ---------------------------------------------------------------------------
# activations: closed forms at -1, 0, 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
def test_activation_closed_forms(x):
    t = tc.constant([x])
    assert abs(tc.relu(t).data[0] - max(x, 0.0)) <= 1e-12
    assert abs(tc.tanh(t).data[0] - math.tanh(x)) <= 1e-12
    assert abs(tc.sigmoid(t).data[0] - 1.0 / (1.0 + math.exp(-x))) <= 1e-12
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
    state = tc.AdamState()
    tc.adam_step(store, state, lr=0.002, weight_decay=0.0)
    # m_hat = v_hat = 1 after bias correction, so the step is -lr/(1+eps)
    assert abs(store.get("w").data[0] + 0.002) <= 1e-9


def test_adam_zero_grad_fixed_point():
    store = make_store(w=np.array([1.5, -2.0]))
    state = tc.AdamState()
    tc.adam_step(store, state, lr=0.002, weight_decay=0.0)
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
            lambda s: tc.tsum(tc.matmul(
                tc.constant(np.random.default_rng(1).normal(size=(4, 5, 3))), s.get("w")) ** 2),
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
            lambda s: tc.tsum(tc.relu(s.get("a")) + tc.elu(s.get("a")) + tc.tanh(s.get("a"))
                              + tc.sigmoid(s.get("a"))),
        ),
        "exp_log_sqrt": (
            {"a": np.abs(x55) + 0.5},
            lambda s: tc.tsum(tc.exp(-s.get("a")) + tc.log(s.get("a")) + tc.sqrt(s.get("a"))),
        ),
        "softmax": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.softmax(s.get("a"))
                              * tc.constant(np.random.default_rng(42).normal(size=(5, 5)))),
        ),
        "logsumexp": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.logsumexp_last(s.get("a"))),
        ),
        "concat_slice_pad": (
            {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 2))},
            lambda s: tc.tsum(tc.pad_last(tc.slice_last(
                tc.concat([s.get("a"), s.get("b")], axis=1), 1, 5), 1, 2) ** 2),
        ),
        "reductions": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.tmean(s.get("a"), axis=0) * tc.tsum(s.get("a"), axis=1, keepdims=False))
        ),
        "max_last": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.max_last(s.get("a"))),
        ),
        "maxpool": (
            {"a": rng.normal(size=(2, 3, 7))},
            lambda s: tc.tsum(tc.maxpool1d_w2(s.get("a")) ** 2),
        ),
        "conv1d": (
            {"x": rng.normal(size=(2, 2, 8)), "k": rng.normal(size=(3, 2, 3))},
            lambda s: tc.tsum(tc.conv1d(s.get("x"), s.get("k"), stride=2, padding=1) ** 2),
        ),
        "gather_take": (
            {"a": x55.copy()},
            lambda s: tc.tsum(tc.take_per_row(tc.gather_rows(s.get("a"), np.array([0, 2, 2, 4])),
                                              np.array([1, 0, 3, 2]))),
        ),
        "clamp": (
            {"a": np.array([[-0.5, 0.3, 0.9, 1.7]])},
            lambda s: tc.tsum(tc.clamp(s.get("a"), 0.0, 1.0) ** 2),
        ),
        "attention": (
            {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2), "v": rng.normal(size=2)},
            lambda s: tc.tsum(tc.attention_pool_batch(
                tc.constant(np.random.default_rng(8).normal(size=(2, 4, 3))),
                s.get("w"), s.get("b"), s.get("v")) ** 2),
        ),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_op_gradients_match_finite_differences(name):
    arrays, loss = _op_cases()[name]
    store = make_store(**arrays)
    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, f"{name}: {report.worst()}"


def test_pow_operator_gradient():
    store = make_store(a=np.abs(np.random.default_rng(4).normal(size=(3, 3))) + 0.3)

    def loss(s):
        return tc.tsum(tc.pow_const(s.get("a"), 3.0))

    assert grad_check(loss, store, tol=1e-4).passed


def test_backward_requires_scalar():
    t = tc.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        tc.backward(t + t)


def test_no_grad_blocks_graph():
    w = tc.Tensor(np.ones(3), requires_grad=True)
    with tc.no_grad():
        out = tc.tsum(w * w)
    assert not out.requires_grad


def test_no_grad_is_per_thread():
    # force the interleaving A enters, B enters, A exits, B exits; a shared
    # flag would re-enable graphs inside B's block and leave them disabled
    w = tc.Tensor(np.ones(3), requires_grad=True)
    barrier = threading.Barrier(2, timeout=10)
    built_in_b = []
    errors = []

    def thread_a():
        try:
            with tc.no_grad():
                barrier.wait()  # 1: A is inside
                barrier.wait()  # 2: B is inside
            barrier.wait()      # 3: A has left
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    def thread_b():
        try:
            barrier.wait()      # 1
            with tc.no_grad():
                barrier.wait()  # 2
                barrier.wait()  # 3
                built_in_b.append(tc.tsum(w * w).requires_grad)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert errors == []
    assert built_in_b == [False]
    assert tc.tsum(w * w).requires_grad


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
    with pytest.raises(ShapeError):
        store.load_values({"w": np.ones(3)})
