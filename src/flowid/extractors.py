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
from .errors import ConfigError, check_memory
from .ingest.records import FlowRecord
from .rng import Rng
from .tensor_core import ParameterStore, Tensor, fill, glorot

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


def build_view_batch(flows: list[FlowRecord], n: int, m: int) -> ViewBatch:
    if not flows:
        raise ConfigError("cannot build a view batch from zero flows")
    if n < 1 or m < 1:
        raise ConfigError(f"n and m must be >= 1, got n={n}, m={m}")
    # lengths, directions and payloads: 8 bytes an entry, n * (m + 2) a flow
    check_memory(8 * len(flows) * n * (m + 2),
                 f"the view arrays of {len(flows)} flows at n={n}, m={m}")
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


def extractor_params(cfg: TrainConfig):
    """(name, shape, init) of each extractor and fusion parameter, in creation
    order; init(shape, rng) draws from the part's substream."""
    d = cfg.extractor_dim
    h = cfg.lstm_hidden
    c1, c2 = cfg.cnn_channels
    gh = cfg.gcn_hidden
    k = cfg.conv_kernel
    fh = cfg.fuse_hidden
    zero = fill(0.0)

    yield "temporal.lstm.wx", (1, 4 * h), glorot("t0")
    yield "temporal.lstm.wh", (h, 4 * h), glorot("t1")
    # gates [input, forget, cell, output]: the forget gate starts open
    yield "temporal.lstm.b", (4 * h,), lambda shape, rng: np.repeat([0.0, 1.0, 0.0, 0.0], h)
    yield "temporal.attn.w", (h, h), glorot("t2")
    yield "temporal.attn.b", (h,), zero
    yield "temporal.attn.v", (h,), glorot("t3")
    yield "temporal.out.w", (h, d), glorot("t4")
    yield "temporal.out.b", (d,), zero

    yield "payload.conv1.w", (c1, 1, k), glorot("p0")
    yield "payload.conv1.b", (c1,), zero
    yield "payload.conv2.w", (c2, c1, k), glorot("p1")
    yield "payload.conv2.b", (c2,), zero
    yield "payload.attn.w", (c2, c2), glorot("p2")
    yield "payload.attn.b", (c2,), zero
    yield "payload.attn.v", (c2,), glorot("p3")
    yield "payload.out.w", (c2, d), glorot("p4")
    yield "payload.out.b", (d,), zero

    yield "interaction.gcn1.w", (2, gh), glorot("g0")
    yield "interaction.gcn2.w", (gh, gh), glorot("g1")
    yield "interaction.out.w", (gh, d), glorot("g2")
    yield "interaction.out.b", (d,), zero

    yield "fuse.lin1.w", (2 * d, fh), glorot("f0")
    yield "fuse.lin1.b", (fh,), zero
    yield "fuse.lin2.w", (fh, d), glorot("f1")
    yield "fuse.lin2.b", (d,), zero
    yield "fuse.alpha", (1,), fill(0.5)


def temporal_encode(store: ParameterStore, lengths: np.ndarray, cfg: TrainConfig) -> Tensor:
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.ndim != 2 or lengths.shape[1] != cfg.n:
        raise ConfigError(f"lengths must be (N, {cfg.n}), got {lengths.shape}")
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
        raise ConfigError(f"payloads must be (N, {cfg.n}, {cfg.m}), got {payloads.shape}")
    n_flows = payloads.shape[0]
    stream = tc.constant((payloads / 255.0).reshape(n_flows, cfg.n * cfg.m, 1))

    # channels-last (N, positions, channels) throughout
    h = tc.conv1d_relu_pool(stream, store.get("payload.conv1.w"), store.get("payload.conv1.b"),
                            cfg.conv_padding, dtype=COMPUTE_DTYPE)
    states = tc.conv1d_relu_pool(h, store.get("payload.conv2.w"), store.get("payload.conv2.b"),
                                 cfg.conv_padding, dtype=COMPUTE_DTYPE)
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
                       counts: np.ndarray) -> Tensor:
    a = tc.constant(path_adjacency(counts))
    t = a.shape[1]
    x = tc.constant(np.stack([lengths[:, :t] / LENGTH_SCALE, directions[:, :t]], axis=2))
    h = tc.relu(tc.matmul(a, tc.matmul(x, store.get("interaction.gcn1.w"))))
    h = tc.relu(tc.matmul(a, tc.matmul(h, store.get("interaction.gcn2.w"))))
    pooled = tc.tsum(h, axis=1) * tc.constant(1.0 / counts[:, None])  # padding rows are zero
    return tc.matmul(pooled, store.get("interaction.out.w")) + store.get("interaction.out.b")


def fuse(store: ParameterStore, z_lstm: Tensor, z_cnn: Tensor, z_gcn: Tensor,
         cfg: TrainConfig, rng: Rng | None = None) -> tuple[Tensor, Tensor]:
    """(z_seq, z_mv): the fused sequence embedding and the final blend.
    Dropout runs on the hidden layer when an `rng` is given (training)."""
    cat = tc.concat([z_cnn, z_lstm], axis=1)
    h = tc.matmul(cat, store.get("fuse.lin1.w")) + store.get("fuse.lin1.b")
    if rng is not None:
        h = h * tc.dropout_mask(h.shape, cfg.dropout, rng.child("fuse-dropout"))
    z_seq = tc.matmul(h, store.get("fuse.lin2.w")) + store.get("fuse.lin2.b")
    alpha = tc.clamp(store.get("fuse.alpha"), 0.0, 1.0)
    z_mv = alpha * z_gcn + (1.0 - alpha) * z_seq
    return z_seq, z_mv


def extract(store: ParameterStore, views: ViewBatch, cfg: TrainConfig,
            rng: Rng | None = None) -> Tensor:
    """The fused (N, d) multi-view embedding z_mv of the batch's flows;
    with an `rng`, fuse's dropout runs (training)."""
    z_lstm = temporal_encode(store, views.lengths, cfg)
    z_cnn = payload_encode(store, views.payloads, cfg)
    z_gcn = interaction_encode(store, views.lengths, views.directions, views.counts)
    return fuse(store, z_lstm, z_cnn, z_gcn, cfg, rng=rng)[1]
