"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is fixed here; nothing is calibrated
at run time.
"""

import json
import math
import time

import numpy as np
import pytest

import flowid.tensor_core as tc
from flowid.augment import (
    AugmentationPipeline,
    hyperedge_weight_perturb,
    membership_mask,
    node_feature_mask,
    parse_pipeline,
)
from flowid.cli import main
from flowid.config import TrainConfig
from flowid.contrast import group_group_loss, node_node_loss
from flowid.encoder import encode, hyperconv_layer
from flowid.extractors import extract
from flowid.hypergraph import FlowHypergraph, build_flow_hypergraph, knn_hyperedges
from flowid.ingest import generate_synthetic_flows, split_flows, three_class_spec, \
    two_class_spec
from flowid.metrics import confusion_matrix, macro_f1_score, macro_metrics
from flowid.rng import Rng
from flowid.tensor_core import ParameterStore
from flowid.trainer import (
    build_parameter_store,
    evaluate_probs,
    fit,
    load_checkpoint,
    prepare_snapshot,
    save_checkpoint,
    step_losses,
)
from gradcheck import grad_check
from pcap_util import build_pcap
from test_contrast import EPS, double_loop_loss
from test_encoder import make_store as encoder_store
from test_hypergraph import brute_force_hyperedges
from test_tensor_core import _op_cases
from test_trainer import subsample_labels


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:2d} {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _toy_cfg(**overrides) -> TrainConfig:
    base = dict(n=6, m=4, extractor_dim=6, hidden=5, projection_dim=4,
                lstm_hidden=3, cnn_channels=(2, 3), conv_kernel=3,
                gcn_hidden=3, fuse_hidden=4, predict_hidden=4, k=2, depth=2,
                seed=7, aug1=parse_pipeline("ew:0.4"), aug2=parse_pipeline("ew:0.4"))
    base.update(overrides)
    return TrainConfig(**base).validate()


def _nudged(store: ParameterStore, seed: int) -> ParameterStore:
    rng = np.random.default_rng(seed)
    for name in store.names():
        t = store.get(name)
        t.data += rng.uniform(-0.05, 0.05, t.data.shape)
    return store


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_arithmetic")
def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    failures = []

    # every differentiable operation on random small shapes
    for name, (arrays, loss) in sorted(_op_cases().items()):
        store = ParameterStore()
        for pname, arr in arrays.items():
            store.add(pname, arr)
        rep = grad_check(loss, store, h=1e-5, tol=1e-4)
        if not rep.passed:
            failures.append(f"op {name}: {rep.max_rel_error:.2e}")

    # recurrent + attention stacks
    rng = np.random.default_rng(13)
    store = ParameterStore()
    store.add("wx", rng.normal(size=(2, 12)) * 0.4)
    store.add("wh", rng.normal(size=(3, 12)) * 0.4)
    store.add("b", rng.normal(size=12) * 0.2)
    x = rng.normal(size=(4, 2))
    def lstm_loss(s):
        out = tc.lstm_batch(x[None], s.get("wx"), s.get("wh"), s.get("b"))
        return tc.tsum(out * out)

    rep = grad_check(lstm_loss, store, h=1e-5, tol=1e-4)
    if not rep.passed:
        failures.append(f"lstm: {rep.max_rel_error:.2e}")

    # full weighted loss on a 6-flow toy hypergraph, every parameter
    cfg = _toy_cfg()
    flows = generate_synthetic_flows(two_class_spec(3), seed=9)
    store = _nudged(build_parameter_store(cfg, 2), 77)
    snap = prepare_snapshot(flows, store, cfg)
    assert len(snap.flow_ids) == 6
    rep = grad_check(lambda s: step_losses(snap, s, cfg, Rng(13)).total,
                     store, h=1e-5, tol=1e-4)
    if not rep.passed:
        failures.append(f"full loss: {rep.worst()}")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"suite took {elapsed:.1f}s (budget 60s)")
    report(1, not failures,
           f"ops + lstm + full joint loss on 6-flow toy, rel err <= 1e-4, "
           f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 2. hypergraph oracle
# ---------------------------------------------------------------------------

def test_criterion_2_hypergraph_oracle():
    rng = np.random.default_rng(42)
    z = rng.normal(size=(200, 16))
    knn_ok = all(
        np.array_equal(knn_hyperedges(z, k), brute_force_hyperedges(z, k))
        for k in (1, 3, 5)
    )

    graph = build_flow_hypergraph(rng.normal(size=(40, 8)), k=3)
    degree_ok = True
    for g in (node_feature_mask(graph, 0.4, Rng(1)),
              hyperedge_weight_perturb(graph, 0.5, Rng(2)),
              membership_mask(graph, 0.4, Rng(3))):
        dv = (g.incidence * g.edge_weights).sum(axis=1)  # weighted memberships per node
        de = np.count_nonzero(g.incidence, axis=0)      # members per edge
        degree_ok &= np.allclose(g.node_degrees, dv) and np.array_equal(g.edge_degrees, de)

    report(2, knn_ok and degree_ok,
           "KNN == O(N^2) brute force on 200x16 points for K in {1,3,5}; "
           "degrees match recomputation after NF/EW/ED")


# ---------------------------------------------------------------------------
# 3. encoder oracle
# ---------------------------------------------------------------------------

def test_criterion_3_encoder_oracle():
    cfg = _toy_cfg(hidden=3, extractor_dim=3)
    store = encoder_store(cfg, 2, seed=9)
    rng = np.random.default_rng(31)
    store.get("encoder.layer0.be").data[...] = rng.normal(size=3)
    store.get("encoder.layer0.bv").data[...] = rng.normal(size=3)
    we = store.get("encoder.layer0.we").data
    be = store.get("encoder.layer0.be").data
    wv = store.get("encoder.layer0.wv").data
    bv = store.get("encoder.layer0.bv").data

    max_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        e = int(rng.integers(1, 9))
        h = (rng.random((n, e)) < 0.5).astype(float)
        weights = np.abs(rng.normal(1.0, 0.5, e))
        graph = FlowHypergraph(h, weights)
        dv, de = graph.node_degrees, graph.edge_degrees
        v_prev = rng.normal(size=(n, 3))
        e_l, v_l = hyperconv_layer(tc.constant(v_prev), graph, store, 0)
        with np.errstate(divide="ignore"):
            inv_de = np.where(de > 0, 1.0 / de, 0.0)
            inv_dv = np.where(dv > 0, 1.0 / dv, 0.0)
        e_exp = np.maximum(np.diag(inv_de) @ h.T @ v_prev @ we + be, 0.0)
        v_exp = np.maximum(np.diag(inv_dv) @ h @ np.diag(weights) @ e_exp @ wv + bv, 0.0)
        max_err = max(max_err, np.abs(e_l.data - e_exp).max(),
                      np.abs(v_l.data - v_exp).max())

    # joint node+edge relabeling permutes encode outputs identically
    z = rng.normal(size=(7, cfg.extractor_dim))
    graph = build_flow_hypergraph(z, k=2)
    node_perm = rng.permutation(7)
    edge_perm = rng.permutation(7)
    permuted = FlowHypergraph(graph.incidence[node_perm][:, edge_perm],
                              graph.edge_weights[edge_perm])
    base_v, base_e = encode(graph, z, store, cfg)
    moved_v, moved_e = encode(permuted, z[node_perm], store, cfg)
    perm_ok = (np.allclose(moved_v.data, base_v.data[node_perm], atol=1e-12)
               and np.allclose(moved_e.data, base_e.data[edge_perm], atol=1e-12))

    report(3, max_err <= 1e-12 and perm_ok,
           f"50 random instances <= 8 nodes match dense two-phase oracle "
           f"(max err {max_err:.1e} <= 1e-12); permutation equivariance holds")


# ---------------------------------------------------------------------------
# 4. contrast closed forms
# ---------------------------------------------------------------------------

def test_criterion_4_contrast_closed_forms():
    checks = []
    v = np.array([[0.4, -1.1, 0.3]])
    checks.append(abs(float(node_node_loss(v, v, 0.7, eps=EPS).data)) <= 1e-12)

    loss = float(node_node_loss(np.eye(2), np.eye(2), 1.0, eps=EPS).data)
    checks.append(abs(loss - math.log(1.0 + math.exp(-1.0))) <= 1e-6)

    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
    checks.append(abs(float(node_node_loss(a, b, 0.5, eps=EPS).data)
                      - float(node_node_loss(b, a, 0.5, eps=EPS).data)) <= 1e-12)

    scales = np.abs(rng.normal(size=6)) + 0.1
    scaled = node_node_loss(a * scales[:, None], b * 3.7, 0.5, eps=EPS)
    checks.append(abs(float(node_node_loss(a, b, 0.5, eps=EPS).data)
                      - float(scaled.data)) <= 1e-10)

    oracle_ok = True
    for tau in (0.5, 1.0):
        oracle_ok &= abs(float(node_node_loss(a, b, tau, eps=EPS).data)
                         - double_loop_loss(a, b, tau)) <= 1e-10
        oracle_ok &= abs(float(group_group_loss(a, b, tau, eps=EPS).data)
                         - double_loop_loss(a, b, tau)) <= 1e-10
    checks.append(oracle_ok)

    report(4, all(checks),
           "single-sample zero, orthonormal closed form log(1+e^-1), view-swap "
           "symmetry, positive-scale invariance, double-loop oracle agreement")


# ---------------------------------------------------------------------------
# 5. augmentation statistics
# ---------------------------------------------------------------------------

def test_criterion_5_augmentation_statistics():
    trials = 100_000
    ok = True
    for p in (0.2, 0.4):
        sigma = math.sqrt(trials * p * (1 - p))
        nf = Rng(11).child("nf", int(10 * p)).bernoulli(p, trials).sum()
        ew = Rng(12).child("ew", int(10 * p)).bernoulli(p, trials).sum()
        ed = Rng(13).child("ed", int(10 * p)).bernoulli(p, trials).sum()
        for count in (nf, ew, ed):
            ok &= abs(count - trials * p) <= 3 * sigma

    # the operators themselves at scale: one big flat graph
    graph = FlowHypergraph(np.ones((trials, 1)), np.ones(1))
    for p in (0.2, 0.4):
        sigma = math.sqrt(trials * p * (1 - p))
        masked = (node_feature_mask(graph, p, Rng(21)).feature_mask == 0).sum()
        ok &= abs(masked - trials * p) <= 3 * sigma
        dropped = trials - membership_mask(graph, p, Rng(22)).incidence.sum()
        ok &= abs(dropped - trials * p) <= 3 * sigma

    identity_graph = build_flow_hypergraph(
        np.random.default_rng(5).normal(size=(30, 4)), 3)
    for op in (lambda g: node_feature_mask(g, 0.0, Rng(1)),
               lambda g: hyperedge_weight_perturb(g, 0.0, Rng(2)),
               lambda g: membership_mask(g, 0.0, Rng(3))):
        ok &= op(identity_graph) is identity_graph

    report(5, bool(ok), f"empirical mask rates within 3-sigma at p in {{0.2, 0.4}} "
                        f"over {trials} trials; p=0 operators are exact identities")


# ---------------------------------------------------------------------------
# 6. end-to-end synthetic at reference defaults
# ---------------------------------------------------------------------------

def _end_to_end_run():
    cfg = TrainConfig(seed=1, epochs=25, patience=8).validate()
    flows = generate_synthetic_flows(two_class_spec(250), seed=42)
    train_f, val_f, test_f = split_flows(flows, (0.6, 0.2, 0.2), seed=42)
    store = build_parameter_store(cfg, 2)
    train_snap = prepare_snapshot(train_f, store, cfg)
    val_snap = prepare_snapshot(val_f, store, cfg)
    result = fit(train_snap, val_snap, cfg, store=store)
    test_snap = prepare_snapshot(test_f, result.store, cfg)
    probs = evaluate_probs(test_snap, result.store, cfg)
    idx = test_snap.labels.labeled_indices()
    f1 = macro_f1_score(probs[idx].argmax(axis=1), test_snap.labels.y[idx], 2)
    return f1, result.history, probs


def test_criterion_6_end_to_end_synthetic():
    cfg = TrainConfig()
    assert (cfg.n, cfg.m, cfg.k, cfg.learning_rate) == (40, 16, 3, 0.002)
    start = time.perf_counter()
    f1_a, history_a, probs_a = _end_to_end_run()
    elapsed = time.perf_counter() - start
    f1_b, history_b, probs_b = _end_to_end_run()
    identical = (history_a == history_b and np.array_equal(probs_a, probs_b)
                 and f1_a == f1_b)
    passed = f1_a >= 0.90 and elapsed <= 300.0 and identical
    report(6, passed,
           f"500 flows, 2 classes, 60/20/20, reference defaults: test macro-F1 "
           f"{f1_a:.4f} >= 0.90, first run {elapsed:.0f}s <= 300s, rerun identical={identical}")


# ---------------------------------------------------------------------------
# 7. ablation direction (non-inferiority of the dual contrast)
# ---------------------------------------------------------------------------

# small dimensions for the many-seed runs of criteria 7 and 8
SMALL_DIMS = dict(extractor_dim=32, hidden=16, projection_dim=16, lstm_hidden=8,
                  cnn_channels=(4, 8), conv_kernel=5, gcn_hidden=8,
                  fuse_hidden=32, predict_hidden=16)


def _scarce_label_run(seed: int, omega: float) -> float:
    cfg = TrainConfig(
        **SMALL_DIMS, seed=seed, epochs=30, patience=None, k=3, n=16, m=8,
        learning_rate=0.005, omega_n=omega, omega_g=omega,
        aug1=parse_pipeline("nf:0.4"), aug2=parse_pipeline("ed:0.4"),
        cosine_eps=1e-8).validate()
    flows = generate_synthetic_flows(three_class_spec(80), seed=seed + 500)
    train_f, val_f, test_f = split_flows(flows, (0.6, 0.2, 0.2), seed=seed)
    store = build_parameter_store(cfg, 3)
    train_snap = prepare_snapshot(train_f, store, cfg)
    train_snap.labels = subsample_labels(train_snap.labels, 0.10, Rng(seed))
    val_snap = prepare_snapshot(val_f, store, cfg)
    result = fit(train_snap, val_snap, cfg, store=store)
    test_snap = prepare_snapshot(test_f, result.store, cfg)
    probs = evaluate_probs(test_snap, result.store, cfg)
    idx = test_snap.labels.labeled_indices()
    return macro_f1_score(probs[idx].argmax(axis=1), test_snap.labels.y[idx], 3)


def test_criterion_7_ablation_direction():
    seeds = range(5)
    with_contrast = [_scarce_label_run(s, 1.0) for s in seeds]
    without = [_scarce_label_run(s, 0.0) for s in seeds]
    mean_with = float(np.mean(with_contrast))
    mean_without = float(np.mean(without))
    diff = mean_with - mean_without
    report(7, mean_with >= mean_without - 0.01,
           f"3-class, 10% labels, 5 seeds: macro-F1 with contrast {mean_with:.4f} vs "
           f"without {mean_without:.4f} (diff {diff:+.4f}, gate >= -0.01; strict "
           f"improvement {'yes' if diff > 0 else 'no'})")


# ---------------------------------------------------------------------------
# 8. K-sweep shape
# ---------------------------------------------------------------------------

def _k_run(seed: int, k: int) -> float:
    cfg = TrainConfig(
        **SMALL_DIMS, seed=seed, epochs=25, patience=None, k=k, n=16, m=8,
        learning_rate=0.005, omega_n=1.0, omega_g=1.0,
        aug1=parse_pipeline("nf:0.4"), aug2=parse_pipeline("ed:0.4"),
        cosine_eps=1e-8).validate()
    flows = generate_synthetic_flows(three_class_spec(100), seed=seed + 900)
    train_f, val_f, test_f = split_flows(flows, (0.6, 0.2, 0.2), seed=seed)
    store = build_parameter_store(cfg, 3)
    train_snap = prepare_snapshot(train_f, store, cfg)
    val_snap = prepare_snapshot(val_f, store, cfg)
    result = fit(train_snap, val_snap, cfg, store=store)
    test_snap = prepare_snapshot(test_f, result.store, cfg)
    probs = evaluate_probs(test_snap, result.store, cfg)
    idx = test_snap.labels.labeled_indices()
    return macro_f1_score(probs[idx].argmax(axis=1), test_snap.labels.y[idx], 3)


def test_criterion_8_k_sweep_shape():
    k3 = float(np.mean([_k_run(s, 3) for s in range(5)]))
    k50 = float(np.mean([_k_run(s, 50) for s in range(5)]))
    report(8, k3 >= k50,
           f"5-seed mean macro-F1: K=3 {k3:.4f} >= K=50 {k50:.4f} "
           f"(large groups mix classes and degrade performance)")


# ---------------------------------------------------------------------------
# 9. formats
# ---------------------------------------------------------------------------

TINY_FLAGS = [
    "--extractor-dim", "24", "--hidden", "12", "--projection-dim", "12",
    "--lstm-hidden", "6", "--cnn-channels", "3,4", "--conv-kernel", "5",
    "--gcn-hidden", "6", "--fuse-hidden", "16",
    "--predict-hidden", "8", "--n", "8", "--m", "6", "--k", "2",
]


def test_criterion_9_formats(tmp_path, capsys):
    ok = True
    details = []

    # pcap fixture -> golden JSONL, byte-identical
    pcap = tmp_path / "two.pcap"
    pcap.write_bytes(build_pcap([
        (2.0, "10.0.0.1", 1234, "10.0.0.2", 80, "tcp", b"\x01\x02"),
        (2.5, "10.0.0.2", 80, "10.0.0.1", 1234, "tcp", b""),
    ]))
    out = tmp_path / "flows.jsonl"
    ok &= main(["extract", "--pcap", str(pcap), "--out", str(out)]) == 0
    golden = (
        '{"id":"flow-000001","five_tuple":{"src":"10.0.0.1","sport":1234,'
        '"dst":"10.0.0.2","dport":80,"proto":"tcp"},"label":null,"packets":'
        '[{"ts":2.0,"dir":-1,"len":56,"payload_hex":"0102"},'
        '{"ts":2.5,"dir":1,"len":54,"payload_hex":""}]}\n'
    )
    golden_ok = out.read_text() == golden
    ok &= golden_ok
    details.append(f"golden jsonl={'ok' if golden_ok else 'MISMATCH'}")

    # checkpoint round trip with bit-identical predictions
    cfg = _toy_cfg()
    flows = generate_synthetic_flows(two_class_spec(6), seed=5)
    store = _nudged(build_parameter_store(cfg, 2), 31)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(store, ckpt)
    restored = load_checkpoint(ckpt, cfg)
    # each side extracts its own features, so the extractor weights are compared too
    before = evaluate_probs(prepare_snapshot(flows, store, cfg), store, cfg)
    after = evaluate_probs(prepare_snapshot(flows, restored, cfg), restored, cfg)
    second = tmp_path / "model2.ckpt"
    save_checkpoint(load_checkpoint(ckpt, cfg), second)
    ckpt_ok = np.array_equal(before, after) and ckpt.read_bytes() == second.read_bytes()
    ok &= ckpt_ok
    details.append(f"checkpoint round trip={'ok' if ckpt_ok else 'MISMATCH'}")

    # one all-covering detect window equals cmd_eval predictions
    root = tmp_path
    assert main(["synth", "--classes", "2", "--per-class", "24", "--seed", "11",
                 "--out", str(root), "--split", "0.6,0.2,0.2"]) == 0
    model = root / "m.ckpt"
    assert main(["train", "--flows", str(root / "train.jsonl"),
                 "--val", str(root / "val.jsonl"), "--out", str(model),
                 "--epochs", "6", "--lr", "0.01", "--seed", "3",
                 "--no-early-stop", *TINY_FLAGS]) == 0
    preds = root / "p.jsonl"
    assert main(["eval", "--flows", str(root / "test.jsonl"), "--model", str(model),
                 "--report", str(root / "r.json"), "--pred-out", str(preds)]) == 0
    det = root / "d.jsonl"
    assert main(["detect", "--flows", str(root / "test.jsonl"), "--model", str(model),
                 "--window", "1e9", "--out", str(det)]) == 0
    capsys.readouterr()
    eval_recs = {r["flow_id"]: r
                 for r in map(json.loads, preds.read_text().splitlines())}
    det_recs = {r["flow_id"]: r
                for r in map(json.loads, det.read_text().splitlines())}
    detect_ok = (set(det_recs) == set(eval_recs)
                 and all(det_recs[f]["pred"] == eval_recs[f]["pred"]
                         and det_recs[f]["probs"] == eval_recs[f]["probs"]
                         for f in det_recs))
    ok &= detect_ok
    details.append(f"detect==eval={'ok' if detect_ok else 'MISMATCH'}")

    report(9, bool(ok), "; ".join(details))


# ---------------------------------------------------------------------------
# 10. metrics hand cases + reference defaults echo
# ---------------------------------------------------------------------------

def test_criterion_10_metrics_and_defaults():
    ok = True
    perfect = macro_metrics(np.diag([3, 4]))
    ok &= abs(perfect.accuracy - 1.0) <= 1e-12
    ok &= abs(perfect.macro_f1 - 1.0) <= 1e-12

    counts = confusion_matrix(np.zeros(4, dtype=int), np.array([0, 0, 1, 1]), 2)
    degenerate = macro_metrics(counts)
    ok &= abs(degenerate.per_class[0].precision - 0.5) <= 1e-12
    ok &= abs(degenerate.per_class[0].recall - 1.0) <= 1e-12
    ok &= abs(degenerate.per_class[0].f1 - 2.0 / 3.0) <= 1e-12
    ok &= degenerate.per_class[1].f1 == 0.0
    ok &= abs(degenerate.macro_f1 - 1.0 / 3.0) <= 1e-12
    ok &= abs(degenerate.accuracy - 0.5) <= 1e-12

    echo = TrainConfig().echo()
    expected = {"n": 40, "m": 16, "k": 3, "learning_rate": 0.002,
                "weight_decay": 1e-3, "extractor_dim": 512, "hidden": 128,
                "projection_dim": 128, "depth": 2, "dropout": 0.2,
                "conv_kernel": 25, "conv_stride": 1, "conv_padding": 12, "include_self": True,
                "lstm_layers": 1, "gcn_layers": 2, "cnn_layers": 2}
    mismatches = {k: (echo.get(k), v) for k, v in expected.items() if echo.get(k) != v}
    ok &= not mismatches
    report(10, bool(ok),
           f"hand-worked metric cases match to 1e-12; default config echoes every "
           f"reference value" + (f"; mismatches: {mismatches}" if mismatches else ""))
