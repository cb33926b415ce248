"""Flow hypergraph: KNN hyperedges plus incidence, weight, and degree matrices.

One hyperedge per flow: the flow's K nearest neighbors in Euclidean feature
space, plus the flow itself when include_self is on (the default). Hyperedge
weights start at 1. Node degrees are weighted row sums of the incidence
matrix; hyperedge degrees are plain column sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError

# Byte budget for one distance block's (rows, N, d) difference temporary.
# Rows per block follow from N and d, so peak memory stays near this budget
# whatever the snapshot size.
_KNN_BLOCK_BYTES = 4 * 1024 * 1024


@dataclass
class FlowHypergraph:
    node_features: np.ndarray          # (N, d) float64
    incidence: np.ndarray              # (N, E) binary float64
    edge_weights: np.ndarray           # (E,) diagonal of M
    node_degrees: np.ndarray           # (N,) diagonal of D_v
    edge_degrees: np.ndarray           # (E,) diagonal of D_e
    labels: Optional[np.ndarray] = None
    feature_mask: Optional[np.ndarray] = None  # (N,) kept-row mask set by augmentation

    @property
    def num_nodes(self) -> int:
        return self.incidence.shape[0]

    @property
    def num_edges(self) -> int:
        return self.incidence.shape[1]

    def copy(self) -> "FlowHypergraph":
        return FlowHypergraph(
            node_features=self.node_features.copy(),
            incidence=self.incidence.copy(),
            edge_weights=self.edge_weights.copy(),
            node_degrees=self.node_degrees.copy(),
            edge_degrees=self.edge_degrees.copy(),
            labels=None if self.labels is None else self.labels.copy(),
            feature_mask=None if self.feature_mask is None else self.feature_mask.copy(),
        )

    def recompute_degrees(self) -> None:
        self.node_degrees, self.edge_degrees = degree_matrices(
            self.incidence, self.edge_weights)


def knn_hyperedges(features: np.ndarray, k: int, include_self: bool = True) -> np.ndarray:
    """Incidence matrix H (N x N): column i is flow i's hyperedge.

    Members are the K flows nearest to flow i (self excluded from candidates,
    distance ties broken by lower flow index) plus flow i itself when
    include_self is on.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(f"features must be (N, d), got {features.shape}")
    n = features.shape[0]
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    if n <= k:
        raise ConfigError(f"need more flows than neighbors: N={n}, K={k}")

    h = np.zeros((n, n), dtype=np.float64)
    block = max(1, _KNN_BLOCK_BYTES // max(1, 8 * n * features.shape[1]))
    for start in range(0, n, block):
        stop = min(n, start + block)
        diff = features[start:stop, None, :] - features[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        for row, i in enumerate(range(start, stop)):
            d2[row, i] = np.inf  # self is never a candidate
        # stable sort keeps lower index first on exact ties
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for row, i in enumerate(range(start, stop)):
            h[nearest[row], i] = 1.0
            if include_self:
                h[i, i] = 1.0
    return h


def degree_matrices(incidence: np.ndarray, edge_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D_v, D_e): weighted membership sums per node, member counts per edge."""
    incidence = np.asarray(incidence, dtype=np.float64)
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    if incidence.ndim != 2 or edge_weights.shape != (incidence.shape[1],):
        raise ShapeError(
            f"inconsistent shapes: H {incidence.shape}, weights {edge_weights.shape}")
    node_degrees = incidence @ edge_weights
    edge_degrees = incidence.sum(axis=0)
    return node_degrees, edge_degrees


def build_flow_hypergraph(features: np.ndarray, k: int,
                          labels: Optional[np.ndarray] = None,
                          include_self: bool = True) -> FlowHypergraph:
    """KNN hyperedges + unit weights (M = I) + degrees; Z = features."""
    features = np.asarray(features, dtype=np.float64)
    incidence = knn_hyperedges(features, k, include_self=include_self)
    edge_weights = np.ones(incidence.shape[1], dtype=np.float64)
    node_degrees, edge_degrees = degree_matrices(incidence, edge_weights)
    return FlowHypergraph(
        node_features=features.copy(),
        incidence=incidence,
        edge_weights=edge_weights,
        node_degrees=node_degrees,
        edge_degrees=edge_degrees,
        labels=None if labels is None else np.asarray(labels).copy(),
    )


def export_text(graph: FlowHypergraph) -> str:
    """Inspection/golden format: node section then one line per hyperedge
    (weight followed by member indices)."""
    n, d = graph.node_features.shape
    lines = [f"#nodes {n} {d}"]
    for row in graph.node_features:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append(f"#edges {graph.num_edges}")
    for j in range(graph.num_edges):
        members = np.flatnonzero(graph.incidence[:, j])
        lines.append(" ".join([repr(float(graph.edge_weights[j]))]
                              + [str(int(i)) for i in members]))
    return "\n".join(lines) + "\n"
