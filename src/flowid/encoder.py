"""Two-phase hypergraph convolution plus projection and prediction heads.

Each layer runs E = relu(D_e^-1 H^T V W_e + b_e) then
V = relu(D_v^-1 H M E W_v + b_v). Inverse degrees use the pseudo-inverse
convention: entries with zero degree stay zero, so a node stripped of every
membership by augmentation receives exactly relu(b_v).
"""

from __future__ import annotations

import numpy as np

from . import tensor_core as tc
from .config import TrainConfig
from .errors import ConfigError, ShapeError
from .hypergraph import FlowHypergraph
from .rng import Rng
from .tensor_core import ParameterStore, Tensor, fill, glorot


def encoder_params(cfg: TrainConfig, n_classes: int):
    """(name, shape, init) of each encoder and head parameter, in creation
    order; init(shape, rng) draws from the part's substream."""
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    hd, p, ph = cfg.hidden, cfg.projection_dim, cfg.predict_hidden
    zero = fill(0.0)
    yield "encoder.in.w", (cfg.extractor_dim, hd), glorot("in")
    yield "encoder.in.b", (hd,), zero
    for layer in range(cfg.depth):
        yield f"encoder.layer{layer}.we", (hd, hd), glorot("we", layer)
        yield f"encoder.layer{layer}.be", (hd,), zero
        yield f"encoder.layer{layer}.wv", (hd, hd), glorot("wv", layer)
        yield f"encoder.layer{layer}.bv", (hd,), zero
    for head in ("node", "edge"):
        yield f"project.{head}.w1", (hd, p), glorot(head, 1)
        yield f"project.{head}.b1", (p,), zero
        yield f"project.{head}.w2", (p, p), glorot(head, 2)
        yield f"project.{head}.b2", (p,), zero
    yield "predict.w1", (hd, ph), glorot("pr1")
    yield "predict.b1", (ph,), zero
    yield "predict.w2", (ph, n_classes), glorot("pr2")
    yield "predict.b2", (n_classes,), zero


def propagation_mats(graph: FlowHypergraph) -> tuple[np.ndarray, np.ndarray]:
    """(P_e, P_v) = (D_e^-1 H^T, D_v^-1 H M) with 0 where a degree is 0."""
    with np.errstate(divide="ignore"):
        inv_de = np.where(graph.edge_degrees > 0, 1.0 / graph.edge_degrees, 0.0)
        inv_dv = np.where(graph.node_degrees > 0, 1.0 / graph.node_degrees, 0.0)
    p_e = inv_de[:, None] * graph.incidence.T
    p_v = inv_dv[:, None] * (graph.incidence * graph.edge_weights[None, :])
    return p_e, p_v


def hyperconv_layer(v_prev: Tensor, graph: FlowHypergraph, store: ParameterStore,
                    layer: int) -> tuple[Tensor, Tensor]:
    """One node->hyperedge->node message pass; returns (E_l, V_l)."""
    if v_prev.shape[0] != graph.num_nodes:
        raise ShapeError(
            f"embedding rows {v_prev.shape[0]} != graph nodes {graph.num_nodes}")
    p_e, p_v = propagation_mats(graph)
    we = store.get(f"encoder.layer{layer}.we")
    be = store.get(f"encoder.layer{layer}.be")
    wv = store.get(f"encoder.layer{layer}.wv")
    bv = store.get(f"encoder.layer{layer}.bv")
    e_l = tc.relu(tc.matmul(tc.matmul(tc.constant(p_e), v_prev), we) + be)
    v_l = tc.relu(tc.matmul(tc.matmul(tc.constant(p_v), e_l), wv) + bv)
    return e_l, v_l


def encode(graph: FlowHypergraph, features: Tensor | np.ndarray, store: ParameterStore,
           cfg: TrainConfig, rng: Rng | None = None) -> tuple[Tensor, Tensor | None]:
    """(V, E): the last layer's node and hyperedge embeddings after the input
    projection of the (N, d) node `features` and cfg.depth stacked layers; E
    is None at depth 0. Dropout runs between layers when an `rng` is given
    (training). Any augmentation feature mask recorded on the graph is
    applied to the features first."""
    z = tc.as_tensor(features)
    if graph.feature_mask is not None:
        z = z * tc.constant(graph.feature_mask[:, None])
    v = tc.matmul(z, store.get("encoder.in.w")) + store.get("encoder.in.b")
    e = None
    for layer in range(cfg.depth):
        if layer > 0 and rng is not None and cfg.dropout > 0:
            v = v * tc.dropout_mask(v.shape, cfg.dropout, rng.child("enc-dropout", layer))
        e, v = hyperconv_layer(v, graph, store, layer)
    return v, e


def _mlp_head(x: Tensor, store: ParameterStore, prefix: str) -> Tensor:
    h = tc.elu(tc.matmul(x, store.get(f"{prefix}.w1")) + store.get(f"{prefix}.b1"))
    return tc.matmul(h, store.get(f"{prefix}.w2")) + store.get(f"{prefix}.b2")


def project(v: Tensor, e: Tensor | None, store: ParameterStore
            ) -> tuple[Tensor, Tensor | None]:
    """(v_hat, e_hat): row-wise 2-layer ELU MLPs with separate node and edge
    parameters; e_hat is None when `e` is."""
    return (_mlp_head(v, store, "project.node"),
            None if e is None else _mlp_head(e, store, "project.edge"))


def predict(node_embeddings: Tensor, store: ParameterStore) -> Tensor:
    """Class distributions per node: 2-layer ReLU MLP with a softmax output."""
    h = tc.relu(tc.matmul(node_embeddings, store.get("predict.w1")) + store.get("predict.b1"))
    logits = tc.matmul(h, store.get("predict.w2")) + store.get("predict.b2")
    return tc.softmax_last(logits)
