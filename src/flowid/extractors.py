"""Multi-view flow encoders and their fusion.

Three views of each flow are embedded to the shared extractor dimension:
  temporal: LSTM over the signed-length sequence + attention pooling,
  payload:  two fused conv1d/ReLU/max-pool blocks over the flattened byte
            stream (bytes scaled to [0,1]) + attention pooling,
  interaction: two GCN layers over the flow's traffic interaction graph,
            the path 0-1-...-(c-1) over its first c = min(packets, n)
            packets with node features (signed length / 1500, direction),
            through the symmetric-normalized self-looped adjacency + mean
            pooling.
The two sequence views are concatenated through a linear/dropout/linear
stack, then blended with the interaction view by a learnable scalar alpha
clamped to [0,1].

Lengths feed the temporal and interaction paths scaled by 1/1500 (an MTU)
so the gates and products start in a well-conditioned range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .config import TrainConfig
from .errors import ConfigError, ShapeError
from .ingest.records import FlowRecord
from .rng import Rng
from .tensor_core import ParameterStore, Tensor, glorot_uniform

LENGTH_SCALE = 1500.0

# Arithmetic dtype of the LSTM and the payload CNN, the two costly ops. Their
# parameters, gradients and outputs stay float64 (see lstm_batch and
# conv1d_relu_pool); float32 halves the bytes their GEMMs and buffers move.
COMPUTE_DTYPE = np.float32


@dataclass
class ViewBatch:
    """The per-flow view arrays, row-aligned across the same N flows; each
    flow keeps its first count = min(packets, n) packets, zero-padded."""

    lengths: np.ndarray     # (N, n) signed lengths
    directions: np.ndarray  # (N, n) -1 or 1, 0 on padding
    payloads: np.ndarray    # (N, n, m) raw byte values 0..255
    counts: np.ndarray      # (N,) int64 packets kept, 1..n


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
    if n < 1 or m < 1:
        raise ConfigError(f"n and m must be >= 1, got n={n}, m={m}")
    lengths = np.zeros((len(flows), n))
    directions = np.zeros((len(flows), n))
    payloads = np.zeros((len(flows), n, m))
    counts = np.zeros(len(flows), dtype=np.int64)
    signed, dirs, raw = [], [], []
    for i, flow in enumerate(flows):
        if not flow.packets:
            raise ConfigError(f"flow {flow.id!r} has no packets")
        counts[i] = min(len(flow.packets), n)
        for pkt in flow.packets[:n]:
            signed.append(pkt.direction * pkt.length)
            dirs.append(pkt.direction)
            raw.append(pkt.payload_prefix[:m].ljust(m, b"\0"))
    kept = np.arange(n) < counts[:, None]  # row-major, the order packets were read
    lengths[kept] = signed
    directions[kept] = dirs
    payloads[kept] = np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(-1, m)
    return ViewBatch(lengths, directions, payloads, counts)


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
                           store.get("temporal.lstm.wh"), store.get("temporal.lstm.b"),
                           dtype=COMPUTE_DTYPE)
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
                            cfg.conv_stride, cfg.conv_padding, dtype=COMPUTE_DTYPE)
    states = tc.conv1d_relu_pool(h, store.get("payload.conv2.w"), store.get("payload.conv2.b"),
                                 cfg.conv_stride, cfg.conv_padding, dtype=COMPUTE_DTYPE)
    pooled = tc.attention_pool_batch(states, store.get("payload.attn.w"),
                                     store.get("payload.attn.b"),
                                     store.get("payload.attn.v"))
    return tc.matmul(pooled, store.get("payload.out.w")) + store.get("payload.out.b")


def path_adjacency(counts: np.ndarray) -> np.ndarray:
    """(N, t, t), t the largest count: each flow's path graph over its
    `count` packets with self-loops, symmetric-normalized D^-1/2 (A+I) D^-1/2
    and zero-padded."""
    t = int(counts.max())
    i = np.arange(t)
    kept = (i < counts[:, None]).astype(np.float64)
    a = np.zeros((len(counts), t, t))
    a[:, i, i] = kept
    a[:, i[:-1], i[1:]] = a[:, i[1:], i[:-1]] = kept[:, 1:]
    d_inv_sqrt = 1.0 / np.sqrt(np.maximum(a.sum(axis=2), 1.0))  # padding rows are zero
    a *= d_inv_sqrt[:, :, None]  # in place: no (N, t, t) temporaries
    a *= d_inv_sqrt[:, None, :]
    return a


def interaction_encode(store: ParameterStore, lengths: np.ndarray, directions: np.ndarray,
                       counts: np.ndarray, cfg: TrainConfig) -> Tensor:
    a = tc.constant(path_adjacency(counts))
    t = a.shape[1]
    x = tc.constant(np.stack([lengths[:, :t] / LENGTH_SCALE, directions[:, :t]], axis=2))
    h = tc.relu(tc.matmul(a, tc.matmul(x, store.get("interaction.gcn1.w"))))
    h = tc.relu(tc.matmul(a, tc.matmul(h, store.get("interaction.gcn2.w"))))
    pooled = tc.tsum(h, axis=1) * tc.constant(1.0 / counts[:, None])  # padding rows are zero
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
    z_gcn = interaction_encode(store, views.lengths, views.directions, views.counts, cfg)
    z_seq, z_mv = fuse(store, z_lstm, z_cnn, z_gcn, cfg, mode=mode, rng=rng)
    return ViewEmbeddings(z_lstm, z_cnn, z_gcn, z_seq, z_mv)
