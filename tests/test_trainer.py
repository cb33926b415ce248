"""Losses, training-step semantics, fit loop, and checkpoint format."""

import hashlib
import json
import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import flowid.tensor_core as tc
from flowid import trainer
from flowid.config import TrainConfig
from flowid.augment import parse_pipeline
from flowid.cli import main as cli_main
from flowid.encoder import encoder_params
from flowid.errors import CheckpointError, ConfigError
from flowid.extractors import extractor_params
from flowid.ingest import generate_synthetic_flows, two_class_spec, write_flows_jsonl
from flowid.metrics import macro_f1_score
from flowid.rng import Rng
from flowid.tensor_core import Adam
from flowid.trainer import (
    LabelSet,
    Snapshot,
    build_parameter_store,
    cross_entropy_loss,
    evaluate_probs,
    fit,
    load_checkpoint,
    prepare_snapshot,
    save_checkpoint,
    step_losses,
    train_step,
)
from gradcheck import grad_check


def tiny_cfg(**overrides) -> TrainConfig:
    base = dict(n=6, m=4, extractor_dim=6, hidden=5, projection_dim=4,
                lstm_hidden=3, cnn_channels=(2, 3), conv_kernel=3,
                gcn_hidden=3, fuse_hidden=4, predict_hidden=4, k=2, depth=2,
                epochs=4, patience=None, seed=7,
                aug1=parse_pipeline("ew:0.4"), aug2=parse_pipeline("ew:0.4"))
    base.update(overrides)
    return TrainConfig(**base).validate()


def generic_store(cfg, n_classes=2):
    """Fresh parameters nudged off the all-zero-bias point: at toy dims the
    relu stack can otherwise collapse a whole layer for unlucky seeds."""
    store = build_parameter_store(cfg, n_classes)
    nudge = np.random.default_rng(cfg.seed + 1000)
    for name in store.names():
        t = store.get(name)
        t.data += nudge.uniform(-0.05, 0.05, t.data.shape)
    return store


def toy_snapshot(cfg, per_class=6, seed=5, store=None):
    flows = generate_synthetic_flows(two_class_spec(per_class), seed=seed)
    store = store or generic_store(cfg)
    return prepare_snapshot(flows, store, cfg), store


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_perfect_prediction_near_zero():
    pred = tc.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    labels = LabelSet(np.array([0, 1]))
    assert abs(float(cross_entropy_loss(pred, labels).data)) <= 1e-9


def test_cross_entropy_uniform_is_log_c():
    pred = tc.constant(np.full((3, 4), 0.25))
    labels = LabelSet(np.array([0, 1, 3]))
    assert abs(float(cross_entropy_loss(pred, labels).data) - math.log(4.0)) <= 1e-9


def test_cross_entropy_matches_direct_sum_oracle():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 3))
    pred = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    y = np.where([True, True, False, True, False, True], rng.integers(0, 3, 6), -1)
    labels = LabelSet(y)
    ours = float(cross_entropy_loss(tc.constant(pred), labels).data)
    # direct evaluation of the one-hot double sum over labeled rows
    expected = 0.0
    for i in range(6):
        for j in range(3):
            if y[i] == j:
                expected -= math.log(pred[i, j] + 1e-12)
    expected /= (y >= 0).sum()
    assert abs(ours - expected) <= 1e-12


def test_cross_entropy_requires_labels():
    pred = tc.constant(np.full((2, 2), 0.5))
    with pytest.raises(ConfigError):
        cross_entropy_loss(pred, LabelSet(np.array([-1, -1])))


def test_cross_entropy_skips_unlabeled_rows():
    # a -1 row is unlabeled: it must not pick the last class's probability
    pred = tc.constant(np.array([[0.9, 0.1], [0.2, 0.8]]))
    loss = float(cross_entropy_loss(pred, LabelSet(np.array([0, -1]))).data)
    assert loss == -math.log(0.9 + 1e-12)


def subsample_labels(labels: LabelSet, fraction: float, rng: Rng) -> LabelSet:
    """Hide all but a stratified fraction of the labels (label-scarcity runs):
    per class, ceil(fraction * count) labels survive, so no class vanishes;
    the rest become -1."""
    y = np.full_like(labels.y, -1)
    for cls in np.unique(labels.y[labels.labeled_indices()]):
        rows = np.flatnonzero(labels.y == cls)
        take = max(1, int(np.ceil(fraction * rows.size)))
        order = rng.child("labels", int(cls)).permutation(rows.size)
        y[rows[order[:take]]] = cls
    return LabelSet(y)


def test_label_subsample():
    labels = LabelSet(np.arange(100) % 3)
    sub = subsample_labels(labels, 0.1, Rng(4))
    kept = sub.labeled_indices()
    assert 0 < kept.size < 40
    np.testing.assert_array_equal(sub.y[kept], labels.y[kept])
    assert set(sub.y[kept]) == {0, 1, 2}  # no class vanishes


# ---------------------------------------------------------------------------
# step losses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("omega_n, omega_g", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
def test_step_losses_total_weighting(omega_n, omega_g):
    cfg = tiny_cfg(omega_n=omega_n, omega_g=omega_g)
    snap, store = toy_snapshot(cfg)
    losses = {name: float(loss.data)
              for name, loss in step_losses(snap, store, cfg, Rng(3)).items()}
    assert list(losses) == ["l_pred", "l_n", "l_g", "total"]
    assert losses["total"] == losses["l_pred"] + omega_n * losses["l_n"] + omega_g * losses["l_g"]
    assert losses["l_n"] != 0.0 and losses["l_g"] != 0.0


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

def test_training_is_deterministic():
    def run():
        cfg = tiny_cfg()
        snap, store = toy_snapshot(cfg)
        opt = Adam(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        rng = Rng(cfg.seed)
        return [train_step(snap, store, opt, cfg, rng.child("e", i)) for i in range(3)]

    a, b = run(), run()
    assert a == b


def test_no_contrast_matches_plain_supervised_updates():
    # omega = 0: augmented views must not influence any gradient, so runs with
    # different pipelines land on identical parameters
    cfg_a = tiny_cfg(omega_n=0.0, omega_g=0.0, aug1=parse_pipeline("iden"),
                     aug2=parse_pipeline("iden"))
    cfg_b = tiny_cfg(omega_n=0.0, omega_g=0.0, aug1=parse_pipeline("ew:0.4"),
                     aug2=parse_pipeline("ed:0.3"))

    def run(cfg):
        snap, store = toy_snapshot(cfg)
        opt = Adam(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        rng = Rng(cfg.seed)
        for i in range(3):
            train_step(snap, store, opt, cfg, rng.child("e", i))
        return store

    store_a, store_b = run(cfg_a), run(cfg_b)
    for name in store_a.names():
        np.testing.assert_array_equal(store_a.get(name).data, store_b.get(name).data,
                                      err_msg=name)


def test_projection_gradients_exactly_zero_without_contrast():
    cfg = tiny_cfg(omega_n=0.0, omega_g=0.0)
    snap, store = toy_snapshot(cfg)
    losses = step_losses(snap, store, cfg, Rng(1))
    store.zero_grad()
    tc.backward(losses["total"])
    for name in store.names():
        grad = store.get(name).grad
        if name.startswith("project."):
            np.testing.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)
    # the prediction path must still learn
    assert np.linalg.norm(store.get("predict.w2").grad) > 0


def test_gradient_flow_isolation():
    # different augmentation draws change only the contrastive losses
    cfg = tiny_cfg(aug1=parse_pipeline("ew:0.5"), aug2=parse_pipeline("ed:0.4"),
                   cosine_eps=1e-8)
    snap, store = toy_snapshot(cfg)
    cfg = replace(cfg, dropout=0.0)  # the draws left are augmentation's
    a = {name: float(loss.data) for name, loss in step_losses(snap, store, cfg, Rng(100)).items()}
    b = {name: float(loss.data) for name, loss in step_losses(snap, store, cfg, Rng(200)).items()}
    assert a["l_pred"] == b["l_pred"]
    assert a["l_n"] != b["l_n"] or a["l_g"] != b["l_g"]


@pytest.mark.usefixtures("float64_arithmetic")
def test_full_loss_gradient_check_six_flow_toy():
    cfg = tiny_cfg(aug1=parse_pipeline("ew:0.4"), aug2=parse_pipeline("ew:0.4"))
    flows = generate_synthetic_flows(two_class_spec(3), seed=9)
    store = build_parameter_store(cfg, 2)
    nudge = np.random.default_rng(77)
    for name in store.names():
        t = store.get(name)
        t.data += nudge.uniform(-0.05, 0.05, t.data.shape)
    snap = prepare_snapshot(flows, store, cfg)
    assert snap.features.shape[0] == len(snap.labels.y) == 6

    def loss(s):
        return step_losses(snap, s, cfg, Rng(13))["total"]

    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_history_length_and_improvement():
    cfg = tiny_cfg(epochs=12, learning_rate=0.01)
    flows = generate_synthetic_flows(two_class_spec(10), seed=6)
    store = generic_store(cfg)
    train_snap = prepare_snapshot(flows[::2], store, cfg)
    val_snap = prepare_snapshot(flows[1::2], store, cfg)
    result = fit(train_snap, val_snap, cfg, store=store)
    assert len(result.history) == cfg.epochs
    assert result.history[-1]["total"] < result.history[0]["total"]
    assert 0 <= result.best_epoch < cfg.epochs
    assert result.best_val_macro_f1 >= 0.5


def test_zero_learning_rate_rejected():
    with pytest.raises(ConfigError):
        tiny_cfg(learning_rate=0.0)


def test_fit_early_stopping_can_shorten_history():
    cfg = tiny_cfg(epochs=40, patience=2, learning_rate=1e-9)
    flows = generate_synthetic_flows(two_class_spec(8), seed=8)
    store = generic_store(cfg)
    train_snap = prepare_snapshot(flows[::2], store, cfg)
    val_snap = prepare_snapshot(flows[1::2], store, cfg)
    result = fit(train_snap, val_snap, cfg, store=store)
    assert len(result.history) < 40  # stalls immediately at lr ~ 0


def test_fit_keeps_the_first_best_epoch_and_stops_on_patience(monkeypatch):
    cfg = tiny_cfg(epochs=10, patience=2)
    flows = generate_synthetic_flows(two_class_spec(6), seed=6)
    store = generic_store(cfg)
    train_snap = prepare_snapshot(flows[::2], store, cfg)
    val_snap = prepare_snapshot(flows[1::2], store, cfg)
    scores = iter([0.5, 0.7, 0.7, 0.6, 0.9])
    after_epoch = []  # the live parameters as each epoch's validation sees them

    def fake_probs(snapshot, live, cfg):
        after_epoch.append(live.copy())

    monkeypatch.setattr(trainer, "evaluate_probs", fake_probs)
    monkeypatch.setattr(Snapshot, "report",
                        lambda self, probs: SimpleNamespace(macro_f1=next(scores)))
    result = fit(train_snap, val_snap, cfg, store=store)
    # epoch 2 ties epoch 1, so epochs 2 and 3 are the two without a gain
    assert [e["val_macro_f1"] for e in result.history] == [0.5, 0.7, 0.7, 0.6]
    assert result.best_epoch == 1 and result.best_val_macro_f1 == 0.7
    assert result.store is not store
    for name in store.names():
        np.testing.assert_array_equal(result.store.get(name).data,
                                      after_epoch[1].get(name).data, err_msg=name)
    # the live parameters moved on in epochs 2 and 3
    assert any(not np.array_equal(result.store.get(name).data, store.get(name).data)
               for name in store.names())


def test_fit_extracts_twice_per_epoch(extract_calls):
    # one training step plus one validation pass on live parameters
    cfg = tiny_cfg(epochs=3)
    flows = generate_synthetic_flows(two_class_spec(6), seed=6)
    store = generic_store(cfg)
    train_snap = prepare_snapshot(flows[::2], store, cfg)
    val_snap = prepare_snapshot(flows[1::2], store, cfg)
    extract_calls.clear()  # the two prepare_snapshot calls above
    result = fit(train_snap, val_snap, cfg, store=store)
    assert len(result.history) == 3
    assert len(extract_calls) == 2 * 3


def test_validation_sees_live_extractor_parameters(monkeypatch):
    # fit validates on the graph of the live features, not the snapshot's
    cfg = tiny_cfg(epochs=1)
    flows = generate_synthetic_flows(two_class_spec(10), seed=6)
    store = generic_store(cfg)
    train_snap = prepare_snapshot(flows[::2], store, cfg)
    val_snap = prepare_snapshot(flows[1::2], store, cfg)
    # a new fusion projection, so the flows' nearest neighbours change
    store.get("fuse.lin2.w").data[...] = np.random.default_rng(3).normal(
        size=(cfg.fuse_hidden, cfg.extractor_dim))
    seen = []
    real = trainer.encode

    def spy(graph, features, *args, **kwargs):
        seen.append((graph, tc.as_tensor(features).data, kwargs))
        return real(graph, features, *args, **kwargs)

    monkeypatch.setattr(trainer, "encode", spy)
    result = fit(train_snap, val_snap, cfg, store=store)
    graph, features, kwargs = seen[-1]  # the three training encodes draw dropout
    assert len(seen) == 4 and "rng" not in kwargs
    live = trainer.extract(store.frozen(), val_snap.views, cfg).data
    live_graph = trainer.build_flow_hypergraph(live, cfg.k)
    assert not np.array_equal(live_graph.incidence, val_snap.graph.incidence)
    np.testing.assert_array_equal(features, live)
    np.testing.assert_array_equal(graph.incidence, live_graph.incidence)
    v, _ = real(live_graph, tc.constant(live), store.frozen(), cfg)
    probs = trainer.predict(v, store.frozen()).data
    idx = val_snap.labels.labeled_indices()
    assert result.history[0]["val_macro_f1"] == macro_f1_score(
        probs[idx].argmax(axis=1), val_snap.labels.y[idx], 2)


def test_inference_on_a_trainable_store_builds_no_graph(monkeypatch):
    # each entry point reads a trainable store through a frozen view, so no
    # tensor that extract or encode returns inside them carries a graph
    cfg = tiny_cfg()
    store = generic_store(cfg)
    returned = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            returned.extend(t for t in (out if isinstance(out, tuple) else (out,))
                            if t is not None)
            return out
        return wrapped

    monkeypatch.setattr(trainer, "extract", spy(trainer.extract))
    monkeypatch.setattr(trainer, "encode", spy(trainer.encode))
    snap, _ = toy_snapshot(cfg, per_class=5, store=store)
    evaluate_probs(snap, store, cfg)
    Snapshot.of(snap.views, snap.labels, store, cfg)  # as fit's validation builds it
    # one extraction in prepare_snapshot, an encoding of (nodes, hyperedges),
    # and one extraction in Snapshot.of
    assert len(returned) == 1 + 2 + 1
    assert all(not t.requires_grad and t._parents == () for t in returned)
    # the live store itself still builds graphs
    assert trainer.extract(store, snap.views, cfg).requires_grad


def test_report_counts_classes_by_the_head_width():
    snap, _ = toy_snapshot(tiny_cfg(), per_class=5)  # classes 0 and 1 only
    probs = np.eye(3)[snap.labels.y]  # a 3-wide head, right on every flow
    probs[0] = [0.1, 0.2, 0.7]
    report = snap.report(probs)
    assert report.confusion.shape == (3, 3) and report.confusion[snap.labels.y[0], 2] == 1
    assert report.accuracy == 0.9 and len(report.per_class) == 3
    unlabeled = replace(snap, labels=LabelSet(np.full(10, -1)))
    with pytest.raises(ConfigError, match="no labeled flows"):
        unlabeled.report(probs)


def test_divergence_reports_parameter_norms():
    # train_step's own errstate stops a non-finite step before any update
    cfg = tiny_cfg()
    snap, store = toy_snapshot(cfg)
    store.get("fuse.lin2.w").data[...] = np.inf
    before = {n: t.data.copy() for n, t in store.items()}
    opt = Adam(lr=cfg.learning_rate)
    with pytest.raises(FloatingPointError):
        train_step(snap, store, opt, cfg, Rng(0))
    assert opt.t == 0
    for name, t in store.items():
        np.testing.assert_array_equal(t.data, before[name])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def seal(body: bytes) -> bytes:
    """The checkpoint trailer, computed here and not by the code under test."""
    return hashlib.sha256(body).digest()[:8]


def write_sealed(path, manifest, payload: bytes) -> None:
    """A checkpoint with this manifest (JSON bytes, or a value to encode) and
    payload under a valid seal."""
    text = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    body = trainer.CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + payload
    path.write_bytes(body + seal(body))


def sealed_parts(blob: bytes) -> tuple[list, bytes]:
    """(manifest, payload) of the sealed checkpoint `blob`."""
    (length,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12:12 + length]), blob[12 + length:-8]


def tiny_checkpoint(path) -> tuple[list, bytes]:
    """Save a two-class tiny_cfg() model at `path`; its (manifest, payload)."""
    save_checkpoint(build_parameter_store(tiny_cfg(), 2), path)
    return sealed_parts(path.read_bytes())


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    cfg = tiny_cfg()
    store = build_parameter_store(cfg, 2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(store, p1)
    loaded = load_checkpoint(p1, cfg)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # [name, shape] in name order, then the float32 tensors end to end
    manifest, payload = sealed_parts(p1.read_bytes())
    assert manifest == [[name, list(store.get(name).shape)] for name in sorted(store.names())]
    assert payload == b"".join(store.get(name).data.astype("<f4").tobytes()
                               for name, _ in manifest)


def test_loaded_checkpoint_is_an_inference_store(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_parameter_store(cfg, 2), path)
    loaded = load_checkpoint(path, cfg)
    assert loaded.names()
    for name, t in loaded.items():
        assert not t.requires_grad and t.grad is None, name
    loaded.zero_grad()  # a no-op, not an error
    clone = loaded.copy()
    assert all(t.grad is None and not t.requires_grad for _, t in clone.items())


def test_checkpoint_duplicate_manifest_name_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    manifest, payload = tiny_checkpoint(path)
    write_sealed(path, manifest[:1] + manifest, payload)
    with pytest.raises(CheckpointError, match="manifest entry 1"):
        load_checkpoint(path, tiny_cfg())


def _entry(name, entry):
    """A manifest change: `name`'s entry replaced by `entry`."""
    return lambda manifest: [entry if e[0] == name else e for e in manifest]


# fuse.alpha is (1,) and predict.w2, whose width is the class count, is (4, 2)
MALFORMED_MANIFESTS = {
    "shape-float": _entry("predict.w2", ["predict.w2", [4, 2.0]]),
    "shape-bool": _entry("fuse.alpha", ["fuse.alpha", [True]]),
    "shape-str": _entry("fuse.alpha", ["fuse.alpha", ["1"]]),
    "shape-nested": _entry("fuse.alpha", ["fuse.alpha", [[1]]]),
    "shape-count-wraps-int64": _entry("fuse.alpha", ["fuse.alpha", [2**40, 2**40]]),
    "shape-beyond-int64": _entry("fuse.alpha", ["fuse.alpha", [2**70]]),
    "shape-negative": _entry("fuse.alpha", ["fuse.alpha", [-1]]),
    "head-beyond-int64": _entry("predict.w2", ["predict.w2", [4, 2**70]]),
    "head-one-class": _entry("predict.w2", ["predict.w2", [4, 1]]),
    "entry-with-offset": _entry("fuse.alpha", ["fuse.alpha", [1], 0]),
    "entry-object": _entry("fuse.alpha", {"name": "fuse.alpha", "shape": [1]}),
    "name-list": _entry("fuse.alpha", [["fuse.alpha"], [1]]),
    "name-int": _entry("fuse.alpha", [3, [1]]),
    "name-null": _entry("fuse.alpha", [None, [1]]),
    "manifest-int": 5,
    "manifest-null": None,
    "manifest-nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("change", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_checkpoint_malformed_manifest_rejected(tmp_path, change):
    path = tmp_path / "model.ckpt"
    manifest, payload = tiny_checkpoint(path)
    write_sealed(path, manifest, payload)
    assert load_checkpoint(path, tiny_cfg()).names()
    write_sealed(path, change(manifest) if callable(change) else change, payload)
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(path, tiny_cfg())


def test_checkpoint_corruption_detected(tmp_path):
    cfg = tiny_cfg()
    store = build_parameter_store(cfg, 2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, cfg)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path, tiny_cfg())


def test_checkpoint_predictions_exact_across_round_trip(tmp_path):
    cfg = tiny_cfg()
    flows = generate_synthetic_flows(two_class_spec(5), seed=5)
    store = generic_store(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)  # canonicalizes the live store to f32 grid
    restored = load_checkpoint(path, cfg)
    # each side extracts its own features, so the extractor weights are compared too
    before = evaluate_probs(prepare_snapshot(flows, store, cfg), store, cfg)
    after = evaluate_probs(prepare_snapshot(flows, restored, cfg), restored, cfg)
    np.testing.assert_array_equal(before, after)


@pytest.mark.parametrize("change", ["short", "long"])
def test_checkpoint_payload_must_end_at_the_seal(tmp_path, change):
    # re-sealed, so the length check and not the checksum has to catch it
    path = tmp_path / "model.ckpt"
    manifest, payload = tiny_checkpoint(path)
    write_sealed(path, manifest, payload[:-40] if change == "short" else payload + bytes(4))
    with pytest.raises(CheckpointError, match="payload of"):
        load_checkpoint(path, tiny_cfg())


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    cfg = tiny_cfg()
    store = build_parameter_store(cfg, 2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    with pytest.raises(CheckpointError, match="encoder"):
        load_checkpoint(path, tiny_cfg(hidden=6))


@pytest.mark.parametrize("n_classes", [2, 5])
def test_declared_shapes_match_built_store(n_classes):
    """Each initializer draws the shape its declaration gives, the shape a
    checkpoint's manifest is checked against, and the store keeps the
    declaration order."""
    cfg = tiny_cfg()
    store = build_parameter_store(cfg, n_classes)
    declared = [(name, shape) for name, shape, _ in
                [*extractor_params(cfg), *encoder_params(cfg, n_classes)]]
    assert declared == [(name, t.shape) for name, t in store.items()]


@pytest.mark.parametrize("overrides, digest", [
    ({}, "003594c7db47af6a"),
    ({"depth": 0, "seed": 3}, "ceb17ef5bf01a9e4"),
    ({"depth": 3, "hidden": 7, "lstm_hidden": 5, "seed": 9}, "0d1789db6f7c5d83"),
])
def test_initial_parameters_are_pinned(overrides, digest):
    """SHA-256 of each parameter's name and float64 bytes in store order: the
    substream keys and creation order, on which Adam's iteration order and a
    checkpoint's bytes depend."""
    h = hashlib.sha256()
    for name, t in build_parameter_store(TrainConfig(**overrides).validate(), 3).items():
        h.update(name.encode())
        h.update(t.data.astype("<f8").tobytes())
    assert h.hexdigest()[:16] == digest


def test_train_writes_checkpoint_sealed_with_sha256(tmp_path, capsys):
    flows = generate_synthetic_flows(two_class_spec(8), seed=4)
    write_flows_jsonl(flows[::2], tmp_path / "train.jsonl")
    write_flows_jsonl(flows[1::2], tmp_path / "val.jsonl")
    model = tmp_path / "model.ckpt"
    assert cli_main([
        "train", "--flows", str(tmp_path / "train.jsonl"),
        "--val", str(tmp_path / "val.jsonl"), "--out", str(model),
        "--epochs", "2", "--seed", "5", "--no-early-stop", "--cosine-eps", "1e-8",
        "--n", "6", "--m", "4", "--k", "2", "--extractor-dim", "512", "--hidden", "8",
        "--projection-dim", "4", "--lstm-hidden", "3", "--cnn-channels", "2,3",
        "--conv-kernel", "3", "--gcn-hidden", "3",
        "--fuse-hidden", "8", "--predict-hidden", "4"]) == 0
    capsys.readouterr()
    blob = model.read_bytes()
    assert blob[:8] == b"FLOWID03"
    assert blob[-8:] == seal(blob[:-8])


def test_checkpoint_bit_flip_anywhere_is_a_checksum_mismatch(tmp_path):
    # default dimensions: a checkpoint of several MB
    store = build_parameter_store(TrainConfig(), 2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, path)
    blob = path.read_bytes()
    assert blob[-8:] == seal(blob[:-8])
    # first byte after the magic, the middle, the last body byte, the trailer
    for offset in (8, len(blob) // 2, len(blob) - 9, len(blob) - 1):
        bad = bytearray(blob)
        bad[offset] ^= 0x10
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path, TrainConfig())
