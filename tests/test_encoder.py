"""Hypergraph convolution against the dense-algebra oracle, heads, equivariance."""

from dataclasses import replace

import numpy as np

import flowid.tensor_core as tc
from flowid.config import TrainConfig
from flowid.encoder import (
    encode,
    encoder_params,
    hyperconv_layer,
    predict,
    project,
    propagation_mats,
)
from flowid.hypergraph import FlowHypergraph, build_flow_hypergraph
from flowid.rng import Rng
from flowid.tensor_core import ParameterStore
from gradcheck import grad_check


def graph_from_incidence(h, weights=None):
    h = np.asarray(h, dtype=np.float64)
    weights = np.ones(h.shape[1]) if weights is None else np.asarray(weights, float)
    return FlowHypergraph(h, weights)


def enc_cfg(**overrides):
    base = dict(extractor_dim=3, hidden=3, projection_dim=3, predict_hidden=3,
                depth=2, dropout=0.0, n=4, m=3, k=1)
    base.update(overrides)
    return TrainConfig(**base).validate()


def make_store(cfg, n_classes=2, seed=0):
    """The encoder's parameters, drawn from the seed's "encoder" substream."""
    store = ParameterStore()
    for name, shape, init in encoder_params(cfg, n_classes):
        store.add(name, init(shape, Rng(seed).child("encoder")))
    return store


def set_identity_layer(store, layer, d):
    store.get(f"encoder.layer{layer}.we").data[...] = np.eye(d)
    store.get(f"encoder.layer{layer}.be").data[...] = 0.0
    store.get(f"encoder.layer{layer}.wv").data[...] = np.eye(d)
    store.get(f"encoder.layer{layer}.bv").data[...] = 0.0


def dense_oracle_layer(graph, v_prev, we, be, wv, bv):
    """Direct dense evaluation of the two-phase update with pseudo-inverse degrees."""
    with np.errstate(divide="ignore"):
        inv_de = np.where(graph.edge_degrees > 0, 1.0 / graph.edge_degrees, 0.0)
        inv_dv = np.where(graph.node_degrees > 0, 1.0 / graph.node_degrees, 0.0)
    e = np.maximum(np.diag(inv_de) @ graph.incidence.T @ v_prev @ we + be, 0.0)
    v = np.maximum(np.diag(inv_dv) @ graph.incidence @ np.diag(graph.edge_weights) @ e @ wv + bv, 0.0)
    return e, v


# ---------------------------------------------------------------------------
# hyperconv_layer
# ---------------------------------------------------------------------------

def test_single_self_edge_identity_fixed_point():
    cfg = enc_cfg()
    store = make_store(cfg)
    set_identity_layer(store, 0, cfg.hidden)
    graph = graph_from_incidence(np.array([[1.0]]))
    v = tc.constant([[0.3, 0.0, 2.5]])
    e_l, v_l = hyperconv_layer(v, graph, store, 0)
    np.testing.assert_allclose(e_l.data, v.data, atol=1e-15)
    np.testing.assert_allclose(v_l.data, v.data, atol=1e-15)


def test_two_nodes_shared_edge_mean():
    cfg = enc_cfg()
    store = make_store(cfg)
    set_identity_layer(store, 0, cfg.hidden)
    graph = graph_from_incidence(np.array([[1.0], [1.0]]))
    v1 = np.array([1.0, 0.0, 2.0])
    v2 = np.array([3.0, 4.0, 0.0])
    e_l, v_l = hyperconv_layer(tc.constant(np.stack([v1, v2])), graph, store, 0)
    np.testing.assert_allclose(e_l.data, [(v1 + v2) / 2], atol=1e-15)
    np.testing.assert_allclose(v_l.data, np.stack([(v1 + v2) / 2] * 2), atol=1e-15)


def test_hyperconv_matches_dense_oracle_random_graphs():
    rng = np.random.default_rng(31)
    cfg = enc_cfg()
    store = make_store(cfg, seed=9)
    we = store.get("encoder.layer0.we").data
    be = store.get("encoder.layer0.be").data
    bv = store.get("encoder.layer0.bv").data
    wv = store.get("encoder.layer0.wv").data
    be[...] = rng.normal(size=be.shape)
    bv[...] = rng.normal(size=bv.shape)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        e = int(rng.integers(1, 9))
        h = (rng.random((n, e)) < 0.5).astype(float)
        weights = np.abs(rng.normal(1.0, 0.5, e))
        graph = graph_from_incidence(h, weights)
        v_prev = rng.normal(size=(n, cfg.hidden))
        e_l, v_l = hyperconv_layer(tc.constant(v_prev), graph, store, 0)
        e_exp, v_exp = dense_oracle_layer(graph, v_prev, we, be, wv, bv)
        np.testing.assert_allclose(e_l.data, e_exp, atol=1e-12)
        np.testing.assert_allclose(v_l.data, v_exp, atol=1e-12)


def test_zero_degree_node_receives_bias():
    cfg = enc_cfg()
    store = make_store(cfg, seed=2)
    bv = store.get("encoder.layer0.bv")
    bv.data[...] = [0.5, -0.25, 1.5]
    h = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])  # node 1 has no membership
    graph = graph_from_incidence(h)
    _, v_l = hyperconv_layer(tc.constant(np.random.default_rng(3).normal(size=(3, 3))),
                             graph, store, 0)
    np.testing.assert_allclose(v_l.data[1], np.maximum(bv.data, 0.0), atol=1e-15)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_default_shape_contract():
    cfg = TrainConfig().validate()  # 512 -> 128, depth 2
    store = make_store(cfg, n_classes=3, seed=5)
    z = np.random.default_rng(6).normal(size=(5, 512))
    graph = build_flow_hypergraph(z, k=3)
    v, e = encode(graph, z, store, cfg)
    assert v.shape == (5, 128)
    assert e.shape == (5, 128)


def test_encode_dropout_runs_exactly_when_an_rng_is_given():
    cfg = enc_cfg(dropout=0.5, hidden=16)
    store = make_store(cfg, seed=9)
    z = np.random.default_rng(10).normal(size=(6, cfg.extractor_dim))
    graph = build_flow_hypergraph(z, k=2)
    plain = encode(graph, z, store, cfg)[0].data
    np.testing.assert_array_equal(encode(graph, z, store, replace(cfg, dropout=0.0),
                                         rng=Rng(1))[0].data, plain)
    a, b = (encode(graph, z, store, cfg, rng=Rng(seed))[0].data for seed in (1, 2))
    assert not np.array_equal(a, plain) and not np.array_equal(a, b)
    np.testing.assert_array_equal(encode(graph, z, store, cfg, rng=Rng(1))[0].data, a)


def test_encode_depth_zero_is_projected_input():
    cfg = enc_cfg(depth=0)
    store = make_store(cfg, seed=7)
    z = np.random.default_rng(8).normal(size=(4, cfg.extractor_dim))
    graph = build_flow_hypergraph(z, k=1)
    v, e = encode(graph, z, store, cfg)
    expected = z @ store.get("encoder.in.w").data + store.get("encoder.in.b").data
    np.testing.assert_allclose(v.data, expected, atol=1e-12)
    assert e is None
    v_hat, e_hat = project(v, e, store)
    assert v_hat.shape == (4, cfg.projection_dim) and e_hat is None


def test_encode_permutation_equivariance():
    cfg = enc_cfg()
    store = make_store(cfg, seed=11)
    rng = np.random.default_rng(12)
    z = rng.normal(size=(7, cfg.extractor_dim))
    graph = build_flow_hypergraph(z, k=2)
    node_perm = rng.permutation(7)
    edge_perm = rng.permutation(7)
    permuted = FlowHypergraph(incidence=graph.incidence[node_perm][:, edge_perm],
                              edge_weights=graph.edge_weights[edge_perm])
    base_v, base_e = encode(graph, z, store, cfg)
    moved_v, moved_e = encode(permuted, z[node_perm], store, cfg)
    np.testing.assert_allclose(moved_v.data, base_v.data[node_perm], atol=1e-12)
    np.testing.assert_allclose(moved_e.data, base_e.data[edge_perm], atol=1e-12)


def test_encode_feature_mask_applied_to_override_features():
    cfg = enc_cfg(depth=1)
    store = make_store(cfg, seed=13)
    z = np.random.default_rng(14).normal(size=(4, cfg.extractor_dim))
    graph = build_flow_hypergraph(z, k=1)
    masked_graph = replace(graph, feature_mask=np.array([1.0, 0.0, 1.0, 0.0]))
    direct = encode(masked_graph, tc.constant(z), store, cfg)[0].data
    masked = z * masked_graph.feature_mask[:, None]
    expected = encode(graph, masked, store, cfg)[0].data
    np.testing.assert_allclose(direct, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# project / predict
# ---------------------------------------------------------------------------

def test_project_zero_weights_is_bias_broadcast():
    cfg = enc_cfg()
    store = make_store(cfg, seed=15)
    for head in ("node", "edge"):
        store.get(f"project.{head}.w1").data[...] = 0.0
        store.get(f"project.{head}.w2").data[...] = 0.0
        store.get(f"project.{head}.b2").data[...] = [1.0, -2.0, 3.0]
    z = np.random.default_rng(16).normal(size=(5, cfg.extractor_dim))
    graph = build_flow_hypergraph(z, k=2)
    v_hat, e_hat = project(*encode(graph, z, store, cfg), store)
    np.testing.assert_allclose(v_hat.data, np.tile([1.0, -2.0, 3.0], (5, 1)), atol=1e-15)
    np.testing.assert_allclose(e_hat.data, np.tile([1.0, -2.0, 3.0], (5, 1)), atol=1e-15)


def test_project_row_purity():
    cfg = enc_cfg()
    store = make_store(cfg, seed=17)
    z = np.random.default_rng(18).normal(size=(4, cfg.extractor_dim))
    _, e = encode(build_flow_hypergraph(z, k=1), z, store, cfg)
    v_hat, _ = project(tc.constant(np.tile([[0.5, 1.0, -1.0]], (4, 1))), e, store)
    for row in v_hat.data[1:]:
        np.testing.assert_array_equal(row, v_hat.data[0])


def test_project_encode_gradient_check():
    cfg = enc_cfg()
    store = make_store(cfg, seed=19)
    nudge = np.random.default_rng(20)
    for name in store.names():
        t = store.get(name)
        t.data += nudge.uniform(-0.05, 0.05, t.data.shape)
    z = nudge.normal(size=(5, cfg.extractor_dim))
    graph = build_flow_hypergraph(z, k=2)
    names = [n for n in store.names() if n.startswith(("encoder.", "project."))]

    def loss(s):
        v_hat, e_hat = project(*encode(graph, z, s, cfg), s)
        return tc.tsum(v_hat * v_hat) + tc.tsum(e_hat * e_hat)

    report = grad_check(loss, store, h=1e-5, tol=1e-4, param_names=names)
    assert report.passed, report.worst()


def test_predict_rows_are_distributions():
    cfg = enc_cfg()
    store = make_store(cfg, n_classes=4, seed=21)
    v = tc.constant(np.random.default_rng(22).normal(size=(6, cfg.hidden)))
    probs = predict(v, store)
    assert probs.shape == (6, 4)
    np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(6), atol=1e-9)
    assert np.all(probs.data > 0)


def test_predict_zero_params_uniform():
    cfg = enc_cfg()
    store = make_store(cfg, n_classes=5, seed=23)
    for name in ("predict.w1", "predict.b1", "predict.w2", "predict.b2"):
        store.get(name).data[...] = 0.0
    probs = predict(tc.constant(np.random.default_rng(24).normal(size=(3, cfg.hidden))), store)
    np.testing.assert_allclose(probs.data, np.full((3, 5), 0.2), atol=1e-12)


def test_predict_argmax_shift_invariant():
    cfg = enc_cfg()
    store = make_store(cfg, n_classes=3, seed=25)
    v = tc.constant(np.random.default_rng(26).normal(size=(8, cfg.hidden)))
    before = predict(v, store).data
    store.get("predict.b2").data += 41.5  # same constant added to every class logit
    after = predict(v, store).data
    np.testing.assert_array_equal(before.argmax(axis=1), after.argmax(axis=1))
    np.testing.assert_allclose(before, after, atol=1e-9)


def test_propagation_mats_zero_degree_rows():
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    graph = graph_from_incidence(h)
    p_e, p_v = propagation_mats(graph)
    np.testing.assert_array_equal(p_e[1], 0.0)  # empty hyperedge
    np.testing.assert_array_equal(p_v[1], 0.0)  # isolated node
    assert np.all(np.isfinite(p_e)) and np.all(np.isfinite(p_v))
