"""View encoders: purity, zero propagation, hand oracles, fusion, gradients."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowid.tensor_core as tc
from flowid import extractors
from flowid.config import TrainConfig
from flowid.errors import ConfigError, ShapeError
from flowid.extractors import (
    LENGTH_SCALE,
    ViewBatch,
    build_view_batch,
    extract,
    extractor_params,
    fuse,
    interaction_encode,
    path_adjacency,
    payload_encode,
    temporal_encode,
)
from flowid.ingest import FiveTuple, FlowRecord, PacketView
from flowid.rng import Rng
from flowid.tensor_core import ParameterStore
from gradcheck import grad_check
from test_tensor_core import _max_rel_error


def tiny_cfg(**overrides) -> TrainConfig:
    base = dict(n=6, m=4, extractor_dim=6, hidden=5, projection_dim=4,
                lstm_hidden=3, cnn_channels=(2, 3), conv_kernel=3,
                gcn_hidden=3, fuse_hidden=4, predict_hidden=4, k=2, depth=2)
    base.update(overrides)
    return TrainConfig(**base).validate()


def make_store(cfg, seed=0) -> ParameterStore:
    """The extractor's parameters, drawn from the seed's "extractor" substream."""
    store = ParameterStore()
    for name, shape, init in extractor_params(cfg):
        store.add(name, init(shape, Rng(seed).child("extractor")))
    return store


def view_embeddings(store, views, cfg) -> tuple:
    """(z_lstm, z_cnn, z_gcn, z_seq, z_mv) in inference mode: each view's
    embedding plus fuse's two outputs, the last of which extract returns."""
    z_lstm = temporal_encode(store, views.lengths, cfg)
    z_cnn = payload_encode(store, views.payloads, cfg)
    z_gcn = interaction_encode(store, views.lengths, views.directions, views.counts, cfg)
    return (z_lstm, z_cnn, z_gcn, *fuse(store, z_lstm, z_cnn, z_gcn, cfg))


def make_flow(dirs_lengths, payloads=None, fid="f"):
    packets = []
    for i, (d, ln) in enumerate(dirs_lengths):
        payload = payloads[i] if payloads else b"\x10\x20"
        packets.append(PacketView(float(i), d, ln, payload))
    return FlowRecord(fid, FiveTuple("10.0.0.1", "10.0.0.2", 1, 2, "tcp"), packets)


def random_views(cfg, n_flows, seed=0) -> ViewBatch:
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_flows):
        count = int(rng.integers(2, cfg.n + 3))
        dirs_lengths = [(int(rng.choice([-1, 1])), int(rng.integers(40, 1500)))
                        for _ in range(count)]
        payloads = [bytes(rng.integers(0, 256, int(rng.integers(0, cfg.m + 2))).astype("uint8"))
                    for _ in range(count)]
        flows.append(make_flow(dirs_lengths, payloads, fid=f"f{i}"))
    return build_view_batch(flows, cfg.n, cfg.m)


def interaction(store, flows, cfg):
    views = build_view_batch(flows, cfg.n, cfg.m)
    return interaction_encode(store, views.lengths, views.directions, views.counts, cfg)


# ---------------------------------------------------------------------------
# temporal view
# ---------------------------------------------------------------------------

def test_temporal_identical_rows_give_identical_embeddings():
    cfg = tiny_cfg()
    store = make_store(cfg)
    row = np.array([-60.0, 1500.0, -40.0, 0.0, 0.0, 0.0])
    out = temporal_encode(store, np.stack([row, row]), cfg)
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_temporal_zero_params_zero_row():
    cfg = tiny_cfg()
    store = make_store(cfg)
    for name in store.names():
        if name.startswith("temporal."):
            store.get(name).data[...] = 0.0
    out = temporal_encode(store, np.zeros((2, cfg.n)), cfg)
    np.testing.assert_array_equal(out.data, np.zeros((2, cfg.extractor_dim)))


@pytest.mark.usefixtures("float64_arithmetic")
def test_temporal_gradient_check_2x4_batch():
    cfg = tiny_cfg(n=4)
    store = make_store(cfg, seed=3)
    lengths = np.random.default_rng(5).integers(-1500, 1500, size=(2, 4)).astype(float)
    names = [n for n in store.names() if n.startswith("temporal.")]

    def loss(s):
        out = temporal_encode(s, lengths, cfg)
        return tc.tsum(out * out)

    report = grad_check(loss, store, h=1e-5, tol=1e-4, param_names=names)
    assert report.passed, report.worst()


def test_temporal_shape_mismatch():
    cfg = tiny_cfg()
    with pytest.raises(ShapeError):
        temporal_encode(make_store(cfg), np.zeros((2, cfg.n + 1)), cfg)


# ---------------------------------------------------------------------------
# payload view
# ---------------------------------------------------------------------------

def test_payload_purity_and_zero_propagation():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=1)
    payloads = np.random.default_rng(0).integers(0, 256, size=(1, cfg.n, cfg.m)).astype(float)
    both = np.concatenate([payloads, payloads], axis=0)
    out = payload_encode(store, both, cfg)
    np.testing.assert_array_equal(out.data[0], out.data[1])
    # all-zero payload: conv biases are zero-initialized, so the row is zero
    zero = payload_encode(store, np.zeros((1, cfg.n, cfg.m)), cfg)
    np.testing.assert_allclose(zero.data, np.zeros((1, cfg.extractor_dim)), atol=1e-15)


def test_payload_default_output_dim_512():
    cfg = TrainConfig(n=40, m=16).validate()
    store = make_store(cfg)
    payloads = np.random.default_rng(1).integers(0, 256, size=(3, 40, 16)).astype(float)
    out = payload_encode(store, payloads, cfg)
    assert out.shape == (3, 512)


@pytest.mark.usefixtures("float64_arithmetic")
def test_payload_gradients():
    cfg = tiny_cfg(n=4, m=3)
    store = make_store(cfg, seed=2)
    payloads = np.random.default_rng(3).integers(0, 256, size=(2, 4, 3)).astype(float)
    names = [n for n in store.names() if n.startswith("payload.")]

    def loss(s):
        out = payload_encode(s, payloads, cfg)
        return tc.tsum(out * out)

    report = grad_check(loss, store, h=1e-5, tol=1e-4, param_names=names)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# interaction view
# ---------------------------------------------------------------------------

def test_interaction_single_node_closed_form():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=4)
    store.get("interaction.out.b").data[...] = 0.0
    out = interaction(store, [make_flow([(-1, 600)])], cfg).data[0]

    x = np.array([-600.0 / LENGTH_SCALE, -1.0])  # normalized adjacency is [[1]]
    h = np.maximum(x @ store.get("interaction.gcn1.w").data, 0.0)
    h = np.maximum(h @ store.get("interaction.gcn2.w").data, 0.0)
    expected = h @ store.get("interaction.out.w").data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_interaction_isomorphic_tigs_equal_rows():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=5)
    flow = make_flow([(-1, 100), (1, 900), (-1, 60)])
    out = interaction(store, [flow, flow], cfg)
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_interaction_path_tig_dense_oracle():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=6)
    flow = make_flow([(-1, 60), (1, 1500), (1, 40)])
    out = interaction(store, [flow], cfg).data[0]

    a_tilde = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])  # path + I
    d = np.diag(1.0 / np.sqrt(a_tilde.sum(axis=1)))
    a_norm = d @ a_tilde @ d
    x = np.array([[-60.0, -1.0], [1500.0, 1.0], [40.0, 1.0]]) / np.array([LENGTH_SCALE, 1.0])
    w1 = store.get("interaction.gcn1.w").data
    w2 = store.get("interaction.gcn2.w").data
    h = np.maximum(a_norm @ np.maximum(a_norm @ x @ w1, 0.0) @ w2, 0.0)
    pooled = h.mean(axis=0)
    expected = pooled @ store.get("interaction.out.w").data + store.get("interaction.out.b").data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_interaction_gradients():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=7)
    flows = [make_flow([(-1, 100), (1, 400)]), make_flow([(1, 900), (1, 50), (-1, 200)])]
    names = [n for n in store.names() if n.startswith("interaction.")]

    def loss(s):
        out = interaction(s, flows, cfg)
        return tc.tsum(out * out)

    assert grad_check(loss, store, h=1e-5, tol=1e-4, param_names=names).passed


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_alpha_endpoints_exact():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=8)
    rng = np.random.default_rng(9)
    z_lstm = tc.constant(rng.normal(size=(3, cfg.extractor_dim)))
    z_cnn = tc.constant(rng.normal(size=(3, cfg.extractor_dim)))
    z_gcn = tc.constant(rng.normal(size=(3, cfg.extractor_dim)))

    store.get("fuse.alpha").data[...] = 1.0
    _, z_mv = fuse(store, z_lstm, z_cnn, z_gcn, cfg)
    np.testing.assert_array_equal(z_mv.data, z_gcn.data)

    store.get("fuse.alpha").data[...] = 0.0
    z_seq, z_mv = fuse(store, z_lstm, z_cnn, z_gcn, cfg)
    np.testing.assert_array_equal(z_mv.data, z_seq.data)


def test_fuse_midpoint_cancellation():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=10)
    store.get("fuse.alpha").data[...] = 0.5
    rng = np.random.default_rng(11)
    z_lstm = tc.constant(rng.normal(size=(2, cfg.extractor_dim)))
    z_cnn = tc.constant(rng.normal(size=(2, cfg.extractor_dim)))
    z_seq, _ = fuse(store, z_lstm, z_cnn, tc.constant(np.zeros((2, cfg.extractor_dim))), cfg)
    _, z_mv = fuse(store, z_lstm, z_cnn, tc.constant(-z_seq.data), cfg)
    np.testing.assert_allclose(z_mv.data, np.zeros_like(z_mv.data), atol=1e-12)


def test_fuse_alpha_clamped_outside_unit_interval():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=12)
    rng = np.random.default_rng(13)
    z = [tc.constant(rng.normal(size=(2, cfg.extractor_dim))) for _ in range(3)]
    store.get("fuse.alpha").data[...] = 7.0
    _, z_mv = fuse(store, *z, cfg)
    np.testing.assert_array_equal(z_mv.data, z[2].data)  # clamps to alpha = 1


# ---------------------------------------------------------------------------
# full extractor
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_arithmetic")
def test_extract_full_path_gradient_check():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=14)
    # zero-initialized biases + zero-padded payload rows put conv outputs
    # exactly on the relu kink, where finite differences are undefined;
    # nudge every parameter to a generic point first
    nudge = np.random.default_rng(140)
    for name in store.names():
        t = store.get(name)
        t.data += nudge.uniform(-0.05, 0.05, t.data.shape)
    views = random_views(cfg, 3, seed=15)

    def loss(s):
        return tc.tsum(extract(s, views, cfg))

    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


def test_extract_float32_agrees_with_float64(monkeypatch):
    # reference dimensions, at a generic point (random bytes, nudged
    # parameters): no exact ties for the payload pool to break either way
    cfg = TrainConfig().validate()
    store = make_store(cfg, seed=22)
    nudge = np.random.default_rng(220)
    for name in store.names():
        t = store.get(name)
        t.data += nudge.uniform(-0.05, 0.05, t.data.shape)
    views = random_views(cfg, 6, seed=23)
    runs = {}
    for dtype in (np.float64, np.float32):
        monkeypatch.setattr(extractors, "COMPUTE_DTYPE", dtype)
        store.zero_grad()
        emb = view_embeddings(store, views, cfg)
        tc.backward(tc.tsum(emb[-1] * emb[-1]))
        runs[dtype] = emb, {name: store.get(name).grad.copy() for name in store.names()}
    (emb, grads), (exact_emb, exact_grads) = runs[np.float32], runs[np.float64]
    for i, (z, exact) in enumerate(zip(emb, exact_emb)):
        assert _max_rel_error(z.data, exact.data) < 1e-6, i
    for name, exact in exact_grads.items():
        assert _max_rel_error(grads[name], exact) < 1e-5, name


def test_extract_inference_deterministic():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=16)
    views = random_views(cfg, 4, seed=17)
    a = extract(store, views, cfg).data
    b = extract(store, views, cfg).data
    np.testing.assert_array_equal(a, b)


def test_extract_row_permutation_equivariance():
    cfg = tiny_cfg()
    store = make_store(cfg, seed=18)
    views = random_views(cfg, 5, seed=19)
    perm = np.array([3, 0, 4, 1, 2])
    permuted = ViewBatch(views.lengths[perm], views.directions[perm], views.payloads[perm],
                         views.counts[perm])
    base = view_embeddings(store, views, cfg)
    moved = view_embeddings(store, permuted, cfg)
    for got, want in zip(moved, base):
        np.testing.assert_allclose(got.data, want.data[perm], atol=1e-12)


def test_extract_rows_do_not_depend_on_batch_companions():
    # reference dimensions at the default COMPUTE_DTYPE: the packet counts of
    # the flows batched with a flow move the payload stream's constant tail
    # (and the path graphs' padding), never the bits of the flow's embeddings
    cfg = TrainConfig().validate()
    store = make_store(cfg, seed=24)
    nudge = np.random.default_rng(240)
    for name in store.names():  # non-zero biases: relu(b1) is stage 2's tail
        t = store.get(name)
        t.data += nudge.uniform(-0.05, 0.05, t.data.shape)
    rng = np.random.default_rng(25)

    def flow(count, fid):
        return make_flow([(int(rng.choice([-1, 1])), int(rng.integers(40, 1500)))
                          for _ in range(count)],
                         [bytes(rng.integers(1, 256, cfg.m).astype("uint8"))
                          for _ in range(count)], fid=fid)

    target = flow(6, "target")
    rows = []
    for place, counts in enumerate([(2, 3, 5, 7, 4, 3, 2), (1, 12, 9, 18, 6, 5, 3),
                                    (40, 2, 2, 2, 2, 2, 2), (6, 6, 6, 6, 6, 6, 6)]):
        flows = [flow(c, f"f{i}") for i, c in enumerate(counts)]
        flows.insert(place, target)
        emb = view_embeddings(store, build_view_batch(flows, cfg.n, cfg.m), cfg)
        rows.append([z.data[place] for z in emb])
    for other in rows[1:]:
        for got, want in zip(other, rows[0]):
            np.testing.assert_array_equal(got, want)


def test_extract_train_mode_dropout_draws_differ():
    cfg = tiny_cfg(dropout=0.5)
    store = make_store(cfg, seed=20)
    views = random_views(cfg, 4, seed=21)
    a = extract(store, views, cfg, rng=Rng(1)).data
    b = extract(store, views, cfg, rng=Rng(2)).data
    assert not np.array_equal(a, b)
    c = extract(store, views, cfg, rng=Rng(1)).data
    np.testing.assert_array_equal(a, c)


# ---------------------------------------------------------------------------
# the per-flow view objects these arrays replaced, kept as the reference
# ---------------------------------------------------------------------------

@dataclass
class Tig:
    """Traffic interaction graph: packets as nodes, features (signed length,
    direction), layers = maximal runs of equal direction. Edges chain packets
    within a layer, and connect the last packet of each layer to the first
    packet of the next."""

    node_count: int
    adjacency: np.ndarray        # (nc, nc) binary symmetric, no self-loops
    features: np.ndarray         # (nc, 2) columns: signed length, direction
    layers: list[range]


def flow_to_tig(flow: FlowRecord, n: int) -> Tig:
    if not flow.packets:
        raise ConfigError("flow_to_tig requires at least one packet")
    packets = flow.packets[: max(n, 1)]
    count = len(packets)
    features = np.zeros((count, 2), dtype=np.float64)
    for i, pkt in enumerate(packets):
        features[i, 0] = pkt.direction * pkt.length
        features[i, 1] = pkt.direction

    layers: list[range] = []
    start = 0
    for i in range(1, count + 1):
        if i == count or packets[i].direction != packets[start].direction:
            layers.append(range(start, i))
            start = i

    adjacency = np.zeros((count, count), dtype=np.float64)
    for layer in layers:
        for i in range(layer.start, layer.stop - 1):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    for prev, nxt in zip(layers, layers[1:]):
        i, j = prev.stop - 1, nxt.start
        adjacency[i, j] = adjacency[j, i] = 1.0
    return Tig(count, adjacency, features, layers)


def pack_tigs(tigs: list[Tig]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad TIGs to a common node count: normalized adjacencies, scaled
    features, and per-flow inverse node counts for masked mean pooling."""
    if any(t.node_count < 1 for t in tigs):
        raise ConfigError("every TIG needs at least one node")
    t_max = max(t.node_count for t in tigs)
    n = len(tigs)
    a_norm = np.zeros((n, t_max, t_max))
    feats = np.zeros((n, t_max, 2))
    inv_counts = np.zeros((n, 1))
    for i, tig in enumerate(tigs):
        nc = tig.node_count
        a_tilde = tig.adjacency + np.eye(nc)
        d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        a_norm[i, :nc, :nc] = d_inv_sqrt[:, None] * a_tilde * d_inv_sqrt[None, :]
        feats[i, :nc, 0] = tig.features[:, 0] / LENGTH_SCALE
        feats[i, :nc, 1] = tig.features[:, 1]
        inv_counts[i, 0] = 1.0 / nc
    return a_norm, feats, inv_counts


def reference_interaction_encode(store, tigs, cfg):
    a_norm, feats, inv_counts = pack_tigs(tigs)
    a = tc.constant(a_norm)
    x = tc.constant(feats)
    h = tc.relu(tc.matmul(a, tc.matmul(x, store.get("interaction.gcn1.w"))))
    h = tc.relu(tc.matmul(a, tc.matmul(h, store.get("interaction.gcn2.w"))))
    pooled = tc.tsum(h, axis=1) * tc.constant(inv_counts)  # padding rows are zero
    return tc.matmul(pooled, store.get("interaction.out.w")) + store.get("interaction.out.b")


def reference_sequences(flows, n, m):
    """Signed lengths (N, n) and payload bytes (N, n, m), filled flow by flow."""
    lengths = np.zeros((len(flows), n), dtype=np.int64)
    payloads = np.zeros((len(flows), n, m), dtype=np.int64)
    for f, flow in enumerate(flows):
        for i, pkt in enumerate(flow.packets[:n]):
            lengths[f, i] = pkt.direction * pkt.length
            prefix = pkt.payload_prefix[:m]
            if prefix:
                payloads[f, i, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    return lengths.astype(np.float64), payloads.astype(np.float64)


REFERENCE_CFG = tiny_cfg()
REFERENCE_STORE = make_store(REFERENCE_CFG, seed=22)
# direction runs of any length, zero-length packets, one-packet flows and
# flows longer than n = 6
packet_draws = st.tuples(st.sampled_from([-1, 1]), st.sampled_from([0, 1, 40, 1500]) |
                         st.integers(0, 1500), st.binary(max_size=6))


@given(st.lists(st.lists(packet_draws, min_size=1, max_size=10), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_view_arrays_match_the_per_flow_tig_reference(packet_lists):
    cfg, store = REFERENCE_CFG, REFERENCE_STORE
    flows = [make_flow([(d, ln) for d, ln, _ in pkts], [p for _, _, p in pkts], fid=f"f{i}")
             for i, pkts in enumerate(packet_lists)]
    views = build_view_batch(flows, cfg.n, cfg.m)
    tigs = [flow_to_tig(f, cfg.n) for f in flows]
    a_norm, feats, inv_counts = pack_tigs(tigs)
    np.testing.assert_array_equal(path_adjacency(views.counts), a_norm)
    np.testing.assert_array_equal(1.0 / views.counts[:, None], inv_counts)
    t = a_norm.shape[1]
    np.testing.assert_array_equal(views.lengths[:, :t] / LENGTH_SCALE, feats[:, :, 0])
    np.testing.assert_array_equal(views.directions[:, :t], feats[:, :, 1])

    z_gcn = reference_interaction_encode(store, tigs, cfg)
    np.testing.assert_array_equal(
        interaction_encode(store, views.lengths, views.directions, views.counts, cfg).data,
        z_gcn.data)
    lengths, payloads = reference_sequences(flows, cfg.n, cfg.m)
    np.testing.assert_array_equal(views.lengths, lengths)
    np.testing.assert_array_equal(views.payloads, payloads)
    _, z_mv = fuse(store, temporal_encode(store, lengths, cfg),
                   payload_encode(store, payloads, cfg), z_gcn, cfg)
    np.testing.assert_array_equal(extract(store, views, cfg).data, z_mv.data)
