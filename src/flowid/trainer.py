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
import itertools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .augment import make_views
from .config import TrainConfig
from .contrast import group_group_loss, node_node_loss
from .encoder import encode, encoder_params, predict, project
from .errors import CheckpointError, ConfigError, check_memory
from .extractors import ViewBatch, build_view_batch, extract, extractor_params
from .hypergraph import FlowHypergraph, build_flow_hypergraph
from .ingest.records import FlowRecord
from .metrics import MetricsReport, confusion_matrix, macro_metrics
from .rng import Rng
from .tensor_core import Adam, ParameterStore, Tensor

EPS_LOG = 1e-12


@dataclass
class LabelSet:
    """Class indices of a snapshot's flows (one-hot rows feed the CE)."""

    y: np.ndarray  # (N,) int64; -1 marks an unlabeled flow

    @classmethod
    def from_flows(cls, flows: list[FlowRecord]) -> "LabelSet":
        return cls(np.array([-1 if f.label is None else f.label for f in flows], dtype=np.int64))

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.y >= 0)


def cross_entropy_loss(pred: Tensor, labels: LabelSet) -> Tensor:
    """Mean over labeled rows of -log(p_true + 1e-12)."""
    idx = labels.labeled_indices()
    if idx.size == 0:
        raise ConfigError("cross entropy needs at least one labeled row")
    p_true = tc.pick(pred, idx, labels.y[idx])
    return -tc.tmean(tc.log(p_true + EPS_LOG))


@dataclass
class Snapshot:
    """Flows as one store sees them: views, labels, the features the store
    extracts (no dropout, no gradients) and the KNN hypergraph built from them."""

    views: ViewBatch
    labels: LabelSet
    features: np.ndarray  # (N, d)
    graph: FlowHypergraph

    @classmethod
    def of(cls, views: ViewBatch, labels: LabelSet, store: ParameterStore,
           cfg: TrainConfig) -> "Snapshot":
        features = extract(store.frozen(), views, cfg).data
        return cls(views, labels, features, build_flow_hypergraph(features, cfg.k))

    def report(self, probs: np.ndarray) -> MetricsReport:
        """Metrics of `probs`, the (N, C) class distributions evaluate_probs
        gives, over the labeled flows; C, the prediction head's width, is the
        class count."""
        idx = self.labels.labeled_indices()
        if idx.size == 0:
            raise ConfigError("evaluation snapshot has no labeled flows")
        return macro_metrics(confusion_matrix(probs[idx].argmax(axis=1), self.labels.y[idx],
                                              probs.shape[1]))


def build_parameter_store(cfg: TrainConfig, n_classes: int) -> ParameterStore:
    """A new model's parameters, each drawn from its part's substream of
    the config's seed. A model whose values, gradients and two Adam moments
    (32 bytes a parameter) exceed physical memory is a MemoryError before
    anything is drawn."""
    size = 0
    for _, shape, _ in itertools.chain(extractor_params(cfg), encoder_params(cfg, n_classes)):
        size += 32 * math.prod(shape)
        check_memory(size, "the model's values, gradients and Adam moments")
    store = ParameterStore()
    for part, params in (("extractor", extractor_params(cfg)),
                         ("encoder", encoder_params(cfg, n_classes))):
        rng = Rng(cfg.seed).child("init").child(part)
        for name, shape, init in params:
            store.add(name, init(shape, rng))
    return store


def prepare_snapshot(flows: list[FlowRecord], store: ParameterStore,
                     cfg: TrainConfig) -> Snapshot:
    """The snapshot of `flows` as `store` sees them."""
    return Snapshot.of(build_view_batch(flows, cfg.n, cfg.m), LabelSet.from_flows(flows),
                       store, cfg)


def step_losses(snapshot: Snapshot, store: ParameterStore, cfg: TrainConfig,
                rng: Rng) -> dict[str, Tensor]:
    """Training forward pass: l_pred, l_n, l_g and their weighted total.
    Deterministic in (parameters, snapshot, rng), including dropout and augmentation draws."""
    z = extract(store, snapshot.views, cfg, rng=rng.child("extract"))
    view1, view2 = make_views(snapshot.graph, cfg.aug1, cfg.aug2, rng.child("augment"))

    v0, _ = encode(snapshot.graph, z, store, cfg, rng=rng.child("enc", 0))
    probs = predict(v0, store)
    l_pred = cross_entropy_loss(probs, snapshot.labels)

    v1, e1 = project(*encode(view1, z, store, cfg, rng=rng.child("enc", 1)), store)
    v2, e2 = project(*encode(view2, z, store, cfg, rng=rng.child("enc", 2)), store)
    l_n = node_node_loss(v1, v2, cfg.tau_n, eps=cfg.cosine_eps)
    l_g = (tc.constant(0.0) if e1 is None  # depth 0: neither view has hyperedges
           else group_group_loss(e1, e2, cfg.tau_g, eps=cfg.cosine_eps))
    return {"l_pred": l_pred, "l_n": l_n, "l_g": l_g,
            "total": l_pred + cfg.omega_n * l_n + cfg.omega_g * l_g}


def train_step(snapshot: Snapshot, store: ParameterStore, optimizer: Adam,
               cfg: TrainConfig, rng: Rng) -> dict[str, float]:
    """One forward, backward and update; an overflow, NaN or division by zero
    in any of them stops the step with FloatingPointError."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        losses = step_losses(snapshot, store, cfg, rng)
        store.zero_grad()
        tc.backward(losses["total"])
        optimizer.step(store)
    return {name: float(loss.data) for name, loss in losses.items()}


def evaluate_probs(snapshot: Snapshot, store: ParameterStore,
                   cfg: TrainConfig) -> np.ndarray:
    """Class distributions, without dropout, for every flow in the snapshot:
    its features encoded on its graph by `store`, the store it was built with."""
    store = store.frozen()
    v, _ = encode(snapshot.graph, snapshot.features, store, cfg)
    return predict(v, store).data.copy()


@dataclass
class FitResult:
    store: ParameterStore  # the parameters after the best epoch
    history: list[dict]

    @property
    def best_epoch(self) -> int:
        """The first epoch with the highest validation macro-F1."""
        return [entry["val_macro_f1"] for entry in self.history].index(self.best_val_macro_f1)

    @property
    def best_val_macro_f1(self) -> float:
        return max(entry["val_macro_f1"] for entry in self.history)


def fit(train_snapshot: Snapshot, val_snapshot: Snapshot, cfg: TrainConfig,
        store: ParameterStore) -> FitResult:
    """Train `store` in place; return a copy of the parameters from the epoch
    with the best validation macro-F1, scored as eval scores: on a snapshot of
    val_snapshot's views and labels built with the live parameters. The training
    graph stays train_snapshot's; whether to rebuild it is an open question."""
    cfg.validate()
    optimizer = Adam(lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = Rng(cfg.seed)

    result = FitResult(store, [])  # epoch 0 replaces the store with its copy
    for epoch in range(cfg.epochs):
        stats = train_step(train_snapshot, store, optimizer, cfg, rng.child("epoch", epoch))
        val = Snapshot.of(val_snapshot.views, val_snapshot.labels, store, cfg)
        f1 = val.report(evaluate_probs(val, store, cfg)).macro_f1
        result.history.append({"epoch": epoch, **stats, "val_macro_f1": f1})
        if result.best_epoch == epoch:
            result.store = store.copy()
        elif cfg.patience is not None and epoch - result.best_epoch >= cfg.patience:
            break
    return result


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"FLOWID03"


def _seal(body) -> bytes:
    """The 8-byte trailer: the first 64 bits of the body's SHA-256."""
    return hashlib.sha256(body).digest()[:8]


def save_checkpoint(store: ParameterStore, path) -> None:
    """Write magic, manifest, float32 payloads, and the SHA-256 seal.

    The manifest lists [name, shape] in name order, and the tensors follow
    it end to end in that order. Saving canonicalizes the live store to
    float32 precision so that predictions made before saving and after
    reloading agree exactly; repeated save/load cycles are byte-identical.
    """
    names = sorted(store.names())
    payloads = []
    for name in names:
        t = store.get(name)
        as_f32 = t.data.astype(np.float32)
        t.data[...] = as_f32.astype(np.float64)
        payloads.append(as_f32.astype("<f4").tobytes())
    manifest = [[name, list(store.get(name).shape)] for name in names]
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    body = (CHECKPOINT_MAGIC + struct.pack("<I", len(manifest_bytes))
            + manifest_bytes + b"".join(payloads))
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(_seal(body))


def load_checkpoint(path, cfg: TrainConfig) -> ParameterStore:
    """The parameters of the model `cfg` describes, read from `path` into an
    inference store: plain tensors, no gradients.

    The class count is the stored prediction head's width. The manifest must
    list exactly that model's tensors, [name, shape] in name order, and the
    payload must hold exactly them, end to end.
    """
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
    payload_start = 12 + manifest_len
    if payload_start > len(body):
        raise CheckpointError("manifest length exceeds file size")
    try:
        manifest = json.loads(str(body[12:payload_start], "utf-8"))
        # entries compare as JSON text, so 2.0 and true do not pass for 2 and 1
        stored = [json.dumps(entry) for entry in manifest]
    except (ValueError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from exc

    try:
        (width,) = [entry[1][1] for entry in manifest if entry[0] == "predict.w2"]
    except (LookupError, TypeError, ValueError):
        width = None
    # a missing or malformed head width is checked as two classes, which names the head
    n_classes = width if type(width) is int and width >= 2 else 2
    # a model larger than the manifest differs from it by its first extra entry
    declared = itertools.chain(extractor_params(cfg), encoder_params(cfg, n_classes))
    expected = sorted([name, list(shape)]
                      for name, shape, _ in itertools.islice(declared, len(manifest) + 1))
    for i, (got, want) in enumerate(itertools.zip_longest(
            stored, map(json.dumps, expected), fillvalue="nothing")):
        if got != want:
            raise CheckpointError(f"manifest entry {i}: expected {want}, got {got}")

    payload = body[payload_start:]
    sizes = [math.prod(shape) for _, shape in expected]
    if len(payload) != 4 * sum(sizes):
        raise CheckpointError(f"payload of {len(payload)} bytes, where the model's "
                              f"tensors take {4 * sum(sizes)}")
    values = np.split(np.frombuffer(payload, dtype="<f4"), np.cumsum(sizes)[:-1])
    store = ParameterStore()
    for (name, shape), arr in zip(expected, values):
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name}: non-finite value")
        store.add(name, Tensor(arr.reshape(shape).astype(np.float64)))
    return store
