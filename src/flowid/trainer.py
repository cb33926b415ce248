"""Joint training and checkpointing.

One training step: (1) draw the two augmented views of the snapshot's
hypergraph, (2) run the extractor and encode the original plus both views
with shared parameters, (3) cross-entropy on the original graph's
predictions over labeled rows, (4) dual contrast on the projected view
embeddings, (5) one Adam update on

    total = l_pred + omega_n * l_n + omega_g * l_g.

All randomness (augmentation draws, dropout masks) derives from the rng
passed in, so a step is replayable: calling the loss with the same rng twice
gives identical values, which is what the finite-difference checks rely on.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .augment import make_views
from .config import TrainConfig
from .contrast import group_group_loss, node_node_loss
from .encoder import encode, init_encoder_params, predict, project
from .errors import CheckpointError, ConfigError, TrainingDivergedError
from .extractors import EXTRACTOR_PREFIXES, ViewBatch, build_view_batch, extract, \
    init_extractor_params
from .hypergraph import FlowHypergraph, build_flow_hypergraph
from .ingest.records import FlowRecord
from .metrics import macro_f1_score
from .rng import Rng
from .tensor_core import Adam, ParameterStore, Tensor

EPS_LOG = 1e-12


@dataclass
class LabelSet:
    """Class indices plus the labeled-subset mask (one-hot rows feed the CE)."""

    y: np.ndarray     # (N,) int64; entries at unmasked positions are ignored
    mask: np.ndarray  # (N,) bool

    @classmethod
    def from_flows(cls, flows: list[FlowRecord]) -> "LabelSet":
        y = np.array([-1 if f.label is None else f.label for f in flows], dtype=np.int64)
        return cls(y=y, mask=y >= 0)

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def n_classes(self) -> int:
        if not self.mask.any():
            raise ConfigError("label set has no labeled rows")
        return int(self.y[self.mask].max()) + 1


def cross_entropy_loss(pred: Tensor, labels: LabelSet) -> Tensor:
    """Mean over labeled rows of -log(p_true + 1e-12)."""
    idx = labels.labeled_indices()
    if idx.size == 0:
        raise ConfigError("cross entropy needs at least one labeled row")
    rows = tc.gather_rows(pred, idx)
    p_true = tc.take_per_row(rows, labels.y[idx])
    return -tc.tmean(tc.log(p_true + EPS_LOG))


def total_loss(l_pred, l_n, l_g, omega_n: float, omega_g: float):
    """Weighted sum; works on floats and on graph tensors alike."""
    return l_pred + omega_n * l_n + omega_g * l_g


@dataclass
class Snapshot:
    """Everything the trainer needs about one hypergraph snapshot.

    `features` are the inference features of the store the snapshot was
    prepared with; classify it with that same store."""

    flow_ids: list[str]
    views: ViewBatch
    graph: FlowHypergraph
    labels: LabelSet
    features: np.ndarray  # (N, d) extractor output the graph was built from


def build_parameter_store(cfg: TrainConfig, n_classes: int) -> ParameterStore:
    rng = Rng(cfg.seed).child("init")
    store = ParameterStore()
    init_extractor_params(store, cfg, rng)
    init_encoder_params(store, cfg, n_classes, rng)
    return store


class _ShapeRecorder(dict):
    """Takes the init functions' store.add calls: name -> shape."""

    def add(self, name: str, value) -> None:
        self[name] = np.shape(value)


class _ZeroRng:
    """Takes the init functions' Rng calls: each draw is a broadcast zero,
    which allocates nothing."""

    def child(self, *keys) -> "_ZeroRng":
        return self

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return np.broadcast_to(0.0, size)


def parameter_shapes(cfg: TrainConfig, n_classes: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter build_parameter_store makes.

    Nothing is allocated or drawn, so checking a checkpoint against its model
    costs no second copy of the model's parameters and gradients.
    """
    shapes = _ShapeRecorder()
    init_extractor_params(shapes, cfg, _ZeroRng())
    init_encoder_params(shapes, cfg, n_classes, _ZeroRng())
    return dict(shapes)


def prepare_snapshot(flows: list[FlowRecord], store: ParameterStore,
                     cfg: TrainConfig) -> Snapshot:
    """Derive views, run the extractor once (inference mode, no gradients),
    and build the KNN hypergraph from those features. The incidence structure
    is fixed for the snapshot's lifetime. The features stay on the snapshot
    for evaluate_probs with the same store; training steps and fit's
    validation extract features again from the live parameters."""
    views = build_view_batch(flows, cfg.n, cfg.m)
    with tc.no_grad():
        features = extract(store, views, cfg, mode="infer").z_mv.data
    graph = build_flow_hypergraph(features, cfg.k, include_self=cfg.include_self)
    return Snapshot([f.id for f in flows], views, graph, LabelSet.from_flows(flows), features)


@dataclass
class StepLosses:
    total: Tensor
    l_pred: Tensor
    l_n: Tensor
    l_g: Tensor

    def stats(self) -> dict[str, float]:
        return {"l_pred": float(self.l_pred.data), "l_n": float(self.l_n.data),
                "l_g": float(self.l_g.data), "total": float(self.total.data)}


def step_losses(snapshot: Snapshot, store: ParameterStore, cfg: TrainConfig,
                rng: Rng, mode: str = "train") -> StepLosses:
    """Forward pass producing the full loss breakdown. Deterministic in
    (parameters, snapshot, rng), including dropout and augmentation draws."""
    emb = extract(store, snapshot.views, cfg, mode=mode, rng=rng.child("extract"))
    view1, view2 = make_views(snapshot.graph, cfg.aug1, cfg.aug2, rng.child("augment"))

    enc0 = encode(snapshot.graph, emb.z_mv, store, cfg, mode=mode, rng=rng.child("enc", 0))
    probs = predict(enc0.node_final, store)
    l_pred = cross_entropy_loss(probs, snapshot.labels)

    enc1 = encode(view1, emb.z_mv, store, cfg, mode=mode, rng=rng.child("enc", 1))
    enc2 = encode(view2, emb.z_mv, store, cfg, mode=mode, rng=rng.child("enc", 2))
    v1, e1 = project(enc1, store)
    v2, e2 = project(enc2, store)
    l_n = node_node_loss(v1, v2, cfg.tau_n, eps=cfg.cosine_eps)
    if e1 is None or e2 is None:
        l_g = tc.constant(0.0)
    else:
        l_g = group_group_loss(e1, e2, cfg.tau_g, eps=cfg.cosine_eps)
    total = total_loss(l_pred, l_n, l_g, cfg.omega_n, cfg.omega_g)
    return StepLosses(total=total, l_pred=l_pred, l_n=l_n, l_g=l_g)


def _diverged_message(store: ParameterStore, stats: dict[str, float]) -> str:
    norms = sorted(store.value_norms().items(), key=lambda kv: -kv[1])[:8]
    dump = ", ".join(f"{name}={norm:.3e}" for name, norm in norms)
    return f"non-finite loss {stats}; largest parameter norms: {dump}"


def train_step(snapshot: Snapshot, store: ParameterStore, optimizer: Adam,
               cfg: TrainConfig, rng: Rng) -> dict[str, float]:
    losses = step_losses(snapshot, store, cfg, rng, mode="train")
    stats = losses.stats()
    if not all(np.isfinite(v) for v in stats.values()):
        raise TrainingDivergedError(_diverged_message(store, stats))
    store.zero_grad()
    tc.backward(losses.total)
    optimizer.step(store)
    return stats


def evaluate_probs(snapshot: Snapshot, store: ParameterStore,
                   cfg: TrainConfig) -> np.ndarray:
    """Inference-mode class distributions for every flow in the snapshot.

    The encoder reads the features prepare_snapshot stored on the snapshot,
    so `store` must be the store the snapshot was prepared with, unchanged
    since. Once the parameters move (as during fit), prepare a new snapshot
    or extract live features as evaluate_macro_f1 does."""
    with tc.no_grad():
        enc = encode(snapshot.graph, snapshot.features, store, cfg, mode="infer")
        return predict(enc.node_final, store).data.copy()


def evaluate_macro_f1(snapshot: Snapshot, store: ParameterStore, cfg: TrainConfig,
                      n_classes: int) -> float:
    """Macro-F1 over the labeled flows, from features extracted with the live
    parameters: fit moves them after the snapshot was prepared, so the
    features stored on the snapshot are stale."""
    with tc.no_grad():
        features = extract(store, snapshot.views, cfg, mode="infer").z_mv
        enc = encode(snapshot.graph, features, store, cfg, mode="infer")
        probs = predict(enc.node_final, store).data
    idx = snapshot.labels.labeled_indices()
    if idx.size == 0:
        raise ConfigError("evaluation snapshot has no labeled flows")
    return macro_f1_score(probs[idx].argmax(axis=1), snapshot.labels.y[idx], n_classes)


@dataclass
class FitResult:
    store: ParameterStore
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_macro_f1: float = float("nan")


def fit(train_snapshot: Snapshot, val_snapshot: Snapshot, cfg: TrainConfig,
        store: ParameterStore) -> FitResult:
    """Train `store` in place on the full snapshot with per-epoch validation;
    returns a copy of the parameters from the best-validation-macro-F1 epoch."""
    cfg.validate()
    n_classes = max(train_snapshot.labels.n_classes(), val_snapshot.labels.n_classes())
    if cfg.freeze_extractor:
        for prefix in EXTRACTOR_PREFIXES:
            store.freeze(prefix)
    optimizer = Adam(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = Rng(cfg.seed)

    result = FitResult(store=store.copy())
    result.best_val_macro_f1 = -1.0
    stale = 0
    for epoch in range(cfg.epochs):
        stats = train_step(train_snapshot, store, optimizer, cfg, rng.child("epoch", epoch))
        val_f1 = evaluate_macro_f1(val_snapshot, store, cfg, n_classes)
        entry = {"epoch": epoch, **stats, "val_macro_f1": val_f1}
        result.history.append(entry)
        if val_f1 > result.best_val_macro_f1:
            result.best_val_macro_f1 = val_f1
            result.best_epoch = epoch
            result.store = store.copy()
            stale = 0
        else:
            stale += 1
            if cfg.patience is not None and stale >= cfg.patience:
                break
    return result


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"FLOWID02"


def _seal(body) -> bytes:
    """The 8-byte trailer: the first 64 bits of the body's SHA-256."""
    return hashlib.sha256(body).digest()[:8]


def save_checkpoint(store: ParameterStore, path) -> None:
    """Write magic, manifest, float32 payloads, and the SHA-256 seal.

    Saving canonicalizes the live store to float32 precision so that
    predictions made before saving and after reloading agree exactly;
    repeated save/load cycles are byte-identical.
    """
    names = sorted(store.names())
    payloads = []
    manifest = []
    offset = 0
    for name in names:
        t = store.get(name)
        as_f32 = t.data.astype(np.float32)
        t.data[...] = as_f32.astype(np.float64)
        raw = as_f32.astype("<f4").tobytes()
        manifest.append({"name": name, "shape": list(t.data.shape),
                         "dtype": "f32", "offset": offset})
        payloads.append(raw)
        offset += len(raw)
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    body = (CHECKPOINT_MAGIC + struct.pack("<I", len(manifest_bytes))
            + manifest_bytes + b"".join(payloads))
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(_seal(body))


def load_checkpoint(path) -> ParameterStore:
    """An inference store: plain tensors, no gradients, checked against the
    seal and the manifest but not against any model (check_parameters
    against parameter_shapes does that)."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())  # body and payload are slices, not copies
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 8:
        raise CheckpointError("checkpoint shorter than its fixed framing")
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {bytes(blob[:8])!r}")
    body, trailer = blob[:-8], blob[-8:]
    if _seal(body) != trailer:
        raise CheckpointError("checksum mismatch")
    (manifest_len,) = struct.unpack_from("<I", body, 8)
    manifest_start = 12
    payload_start = manifest_start + manifest_len
    if payload_start > len(body):
        raise CheckpointError("manifest length exceeds file size")
    try:
        manifest = json.loads(str(body[manifest_start:payload_start], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, list):
        raise CheckpointError(f"manifest is not a list: {manifest!r}")

    store = ParameterStore()
    payload = body[payload_start:]
    for entry in manifest:
        try:
            name, shape, dtype, offset = (entry["name"], entry["shape"],
                                          entry["dtype"], entry["offset"])
            # offset and dimensions are ints >= 0; JSON true/false are not
            well_formed = (isinstance(name, str) and isinstance(shape, list)
                           and all(type(v) is int and v >= 0 for v in [offset, *shape]))
        except (KeyError, TypeError):
            well_formed = False
        if not well_formed:
            raise CheckpointError(f"malformed manifest entry {entry!r}")
        if dtype != "f32":
            raise CheckpointError(f"tensor {name}: unsupported dtype {dtype!r}")
        count = math.prod(shape)
        end = offset + 4 * count
        if end > len(payload):
            raise CheckpointError(f"tensor {name}: payload range [{offset}, {end}) "
                                  f"outside data section of {len(payload)} bytes")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name}: non-finite value")
        if name in store:
            raise CheckpointError(f"tensor {name}: listed twice in the manifest")
        store.add(name, Tensor(arr.reshape(shape).astype(np.float64)))
    return store


def check_parameters(values: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """CheckpointError unless `values` holds exactly the tensors `shapes`
    names, each of its shape."""
    for name in shapes:
        if name not in values:
            raise CheckpointError(f"tensor {name}: missing from checkpoint")
    for name, arr in values.items():
        if name not in shapes:
            raise CheckpointError(f"tensor {name}: not a parameter of the model")
        if arr.shape != shapes[name]:
            raise CheckpointError(f"tensor {name}: expected shape {shapes[name]}, "
                                  f"got {arr.shape}")
