"""Multi-view flow encoders and their fusion.

Three views of each flow are embedded to the shared extractor dimension:
  temporal: LSTM over the signed-length sequence + attention pooling,
  payload:  two fused conv1d/ReLU/max-pool blocks over the flattened byte
            stream (bytes scaled to [0,1]) + attention pooling,
  interaction: two GCN layers over the TIG with symmetric-normalized
            self-looped adjacency + mean pooling.
The two sequence views are concatenated through a linear/dropout/linear
stack, then blended with the interaction view by a learnable scalar alpha
clamped to [0,1].

Lengths feed the temporal and TIG paths scaled by 1/1500 (an MTU) so the
gates and products start in a well-conditioned range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .config import TrainConfig
from .errors import ConfigError, ShapeError
from .ingest.records import FlowRecord
from .ingest.views import Tig, flow_to_length_sequence, flow_to_payload_matrix, flow_to_tig
from .rng import Rng
from .tensor_core import ParameterStore, Tensor, glorot_uniform

LENGTH_SCALE = 1500.0


@dataclass
class ViewBatch:
    """The three per-flow views, row-aligned across the same N flows."""

    lengths: np.ndarray    # (N, n) signed lengths
    payloads: np.ndarray   # (N, n, m) raw byte values 0..255
    tigs: list[Tig]


@dataclass
class ViewEmbeddings:
    z_lstm: Tensor
    z_cnn: Tensor
    z_gcn: Tensor
    z_seq: Tensor
    z_mv: Tensor


def build_view_batch(flows: list[FlowRecord], n: int, m: int) -> ViewBatch:
    if not flows:
        raise ConfigError("cannot build a view batch from zero flows")
    lengths = np.stack([flow_to_length_sequence(f, n).values for f in flows]).astype(np.float64)
    payloads = np.stack([flow_to_payload_matrix(f, n, m).values for f in flows]).astype(np.float64)
    tigs = [flow_to_tig(f, n) for f in flows]
    return ViewBatch(lengths, payloads, tigs)


def init_extractor_params(store: ParameterStore, cfg: TrainConfig, rng: Rng) -> None:
    d = cfg.extractor_dim
    h = cfg.lstm_hidden
    c1, c2 = cfg.cnn_channels
    gh = cfg.gcn_hidden

    r = rng.child("extractor")
    store.add("temporal.lstm.wx", glorot_uniform((1, 4 * h), r.child("t0")))
    store.add("temporal.lstm.wh", glorot_uniform((h, 4 * h), r.child("t1")))
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0  # forget gate starts open
    store.add("temporal.lstm.b", b)
    store.add("temporal.attn.w", glorot_uniform((h, h), r.child("t2")))
    store.add("temporal.attn.b", np.zeros(h))
    store.add("temporal.attn.v", glorot_uniform((h, 1), r.child("t3"))[:, 0])
    store.add("temporal.out.w", glorot_uniform((h, d), r.child("t4")))
    store.add("temporal.out.b", np.zeros(d))

    k = cfg.conv_kernel
    store.add("payload.conv1.w", glorot_uniform((c1, 1, k), r.child("p0")))
    store.add("payload.conv1.b", np.zeros(c1))
    store.add("payload.conv2.w", glorot_uniform((c2, c1, k), r.child("p1")))
    store.add("payload.conv2.b", np.zeros(c2))
    store.add("payload.attn.w", glorot_uniform((c2, c2), r.child("p2")))
    store.add("payload.attn.b", np.zeros(c2))
    store.add("payload.attn.v", glorot_uniform((c2, 1), r.child("p3"))[:, 0])
    store.add("payload.out.w", glorot_uniform((c2, d), r.child("p4")))
    store.add("payload.out.b", np.zeros(d))

    store.add("interaction.gcn1.w", glorot_uniform((2, gh), r.child("g0")))
    store.add("interaction.gcn2.w", glorot_uniform((gh, gh), r.child("g1")))
    store.add("interaction.out.w", glorot_uniform((gh, d), r.child("g2")))
    store.add("interaction.out.b", np.zeros(d))

    fh = cfg.fuse_hidden
    store.add("fuse.lin1.w", glorot_uniform((2 * d, fh), r.child("f0")))
    store.add("fuse.lin1.b", np.zeros(fh))
    store.add("fuse.lin2.w", glorot_uniform((fh, d), r.child("f1")))
    store.add("fuse.lin2.b", np.zeros(d))
    store.add("fuse.alpha", np.array([0.5]))


EXTRACTOR_PREFIXES = ("temporal.", "payload.", "interaction.", "fuse.")


def temporal_encode(store: ParameterStore, lengths: np.ndarray, cfg: TrainConfig) -> Tensor:
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.ndim != 2 or lengths.shape[1] != cfg.n:
        raise ShapeError(f"lengths must be (N, {cfg.n}), got {lengths.shape}")
    inputs = (lengths / LENGTH_SCALE)[:, :, None]
    states = tc.lstm_batch(inputs, store.get("temporal.lstm.wx"),
                           store.get("temporal.lstm.wh"), store.get("temporal.lstm.b"))
    pooled = tc.attention_pool_batch(states, store.get("temporal.attn.w"),
                                     store.get("temporal.attn.b"),
                                     store.get("temporal.attn.v"))
    return tc.matmul(pooled, store.get("temporal.out.w")) + store.get("temporal.out.b")


def payload_encode(store: ParameterStore, payloads: np.ndarray, cfg: TrainConfig) -> Tensor:
    payloads = np.asarray(payloads, dtype=np.float64)
    if payloads.ndim != 3 or payloads.shape[1:] != (cfg.n, cfg.m):
        raise ShapeError(f"payloads must be (N, {cfg.n}, {cfg.m}), got {payloads.shape}")
    n_flows = payloads.shape[0]
    stream = tc.constant((payloads / 255.0).reshape(n_flows, cfg.n * cfg.m, 1))

    # channels-last (N, positions, channels) throughout
    h = tc.conv1d_relu_pool(stream, store.get("payload.conv1.w"), store.get("payload.conv1.b"),
                            cfg.conv_stride, cfg.conv_padding)
    states = tc.conv1d_relu_pool(h, store.get("payload.conv2.w"), store.get("payload.conv2.b"),
                                 cfg.conv_stride, cfg.conv_padding)
    pooled = tc.attention_pool_batch(states, store.get("payload.attn.w"),
                                     store.get("payload.attn.b"),
                                     store.get("payload.attn.v"))
    return tc.matmul(pooled, store.get("payload.out.w")) + store.get("payload.out.b")


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


def interaction_encode(store: ParameterStore, tigs: list[Tig], cfg: TrainConfig) -> Tensor:
    a_norm, feats, inv_counts = pack_tigs(tigs)
    a = tc.constant(a_norm)
    x = tc.constant(feats)
    h = tc.relu(tc.matmul(a, tc.matmul(x, store.get("interaction.gcn1.w"))))
    h = tc.relu(tc.matmul(a, tc.matmul(h, store.get("interaction.gcn2.w"))))
    pooled = tc.tsum(h, axis=1) * tc.constant(inv_counts)  # padding rows are zero
    return tc.matmul(pooled, store.get("interaction.out.w")) + store.get("interaction.out.b")


def fuse(store: ParameterStore, z_lstm: Tensor, z_cnn: Tensor, z_gcn: Tensor,
         cfg: TrainConfig, mode: str = "infer", rng: Rng | None = None
         ) -> tuple[Tensor, Tensor]:
    """(z_seq, z_mv): the fused sequence embedding and the final blend."""
    cat = tc.concat([z_cnn, z_lstm], axis=1)
    h = tc.matmul(cat, store.get("fuse.lin1.w")) + store.get("fuse.lin1.b")
    if mode == "train":
        if rng is None:
            raise ConfigError("train-mode fuse needs an rng for dropout")
        h = h * tc.dropout_mask(h.shape, cfg.dropout, rng.child("fuse-dropout"))
    z_seq = tc.matmul(h, store.get("fuse.lin2.w")) + store.get("fuse.lin2.b")
    alpha = tc.clamp(store.get("fuse.alpha"), 0.0, 1.0)
    z_mv = alpha * z_gcn + (1.0 - alpha) * z_seq
    return z_seq, z_mv


def extract(store: ParameterStore, views: ViewBatch, cfg: TrainConfig,
            mode: str = "infer", rng: Rng | None = None) -> ViewEmbeddings:
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be train or infer, got {mode!r}")
    z_lstm = temporal_encode(store, views.lengths, cfg)
    z_cnn = payload_encode(store, views.payloads, cfg)
    z_gcn = interaction_encode(store, views.tigs, cfg)
    z_seq, z_mv = fuse(store, z_lstm, z_cnn, z_gcn, cfg, mode=mode, rng=rng)
    return ViewEmbeddings(z_lstm, z_cnn, z_gcn, z_seq, z_mv)
