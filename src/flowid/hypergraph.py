"""Flow hypergraph: KNN hyperedges plus incidence, weight, and degree matrices.

One hyperedge per flow: the flow's K nearest neighbors in Euclidean feature
space, plus the flow itself when include_self is on (the default). Hyperedge
weights start at 1. Node degrees are weighted row sums of the incidence
matrix; hyperedge degrees are plain column sums.

The neighbor search is exact brute force in two steps. One GEMM per block of
query rows gives every squared distance as |a|^2 - 2 a.b + |b|^2 on
column-centred features, the decomposition FAISS uses for exact search
(Johnson, Douze, Jegou, arXiv:1702.08734). A rounding bound on that
arithmetic keeps a candidate set that provably holds the true K nearest.
The candidates are then ranked on the original features with the plain
difference form sum((a - b)^2), so the result equals a full difference-form
sort, ties included. Features must be finite and small enough that no
squared distance overflows; anything else is a ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError

# Byte budget for one block of the (N, N) GEMM distance matrix: a block holds
# budget // (8 N) query rows, so scratch memory stays near a few budgets
# beyond the (N, N) incidence matrix whatever the snapshot size.
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

    Members are the K flows nearest to flow i by squared Euclidean distance
    (self excluded from candidates, distance ties broken by lower flow index)
    plus flow i itself when include_self is on. The distance that ranks flows
    is the difference form D_ij = sum_t (x_it - x_jt)^2, computed as written.

    Candidates. With z = fl(x - mean(x)) and sq_j = |z_j|^2, one GEMM per
    block of query rows gives g_ij = (-2 z_i.z_j + sq_i) + sq_j. With
    tau_i the K-th smallest g_ij (j != i), every j != i with
    g_ij <= tau_i + 2 B_i is a candidate.

    Bound. B_i >= |g_ij - D_ij| for every j. Let u = 2^-53 and
    m_i = sq_i + max_j sq_j. To first order in u, with Higham's (3.5) bound
    for a d-term dot product, |fl(x.y) - x.y| <= d u sum_t |x_t y_t|, which
    holds for any summation order, blocking or FMA use (so for any BLAS and
    any thread count):
      centring moves each coordinate by u|z|, so it moves a squared distance
        by at most 4 u m_i;
      sq_i, sq_j and 2 z_i.z_j are dot products off by 2 d u (sq_i + sq_j)
        together, and the two additions round by at most 4 u m_i more:
        (2d + 4) u m_i;
      each difference-form term rounds twice before a d-term sum, so D_ij
        is off by (d + 2) u |x_i - x_j|^2 <= 2 (d + 2) u m_i.
    The sum is (4d + 12) u m_i. B_i = 8 (d + 2) u m_i leaves at least
    (4d + 4) u m_i >= 8 u m_i for second-order terms and for rounding sq,
    B_i and tau_i + 2 B_i themselves while (d + 2) u <= 2^-20; an absolute
    (d + 2) 2^-1070 covers gradual underflow (at most 2^-1075 per product).

    Proof that the true K nearest are candidates: at least K values D_il
    are <= D_(K) (the K-th smallest), so tau_i >= D_(K) - B_i, and each
    true neighbour j has g_ij <= D_ij + B_i <= D_(K) + B_i <= tau_i + 2 B_i.

    Re-rank. Each row's candidates, in ascending flow index, are sorted
    stably by D_ij and the first K kept: the same (distance, index) order
    a difference-form sort over all N flows gives.

    Raises ConfigError for non-finite features, or when 8 max_j sq_j is not
    finite (a squared distance could overflow).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(f"features must be (N, d), got {features.shape}")
    n, d = features.shape
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    if n <= k:
        raise ConfigError(f"need more flows than neighbors: N={n}, K={k}")
    if not np.isfinite(features).all():
        raise ConfigError("features must be finite for KNN hyperedges")

    z = features - features.mean(axis=0)
    sq = np.einsum("ij,ij->i", z, z)
    top = sq.max()
    if not np.isfinite(8.0 * top):
        raise ConfigError("features too large for KNN hyperedges: "
                          "squared distances could overflow")
    slack = 2.0 * (d + 2) * (8.0 * 2.0 ** -53 * (sq + top) + 2.0 ** -1070)  # 2 B_i

    h = np.zeros((n, n), dtype=np.float64)
    block = max(1, _KNN_BLOCK_BYTES // (8 * n))
    for start in range(0, n, block):
        stop = min(n, start + block)
        nearest = _block_nearest(features, z, sq, slack, start, stop, k)
        h[nearest, np.arange(start, stop)[:, None]] = 1.0
    if include_self:
        np.fill_diagonal(h, 1.0)
    return h


def _block_nearest(features, z, sq, slack, start, stop, k) -> np.ndarray:
    """(stop - start, k) indices of the K nearest flows to each query row."""
    local = np.arange(stop - start)
    g = z[start:stop] @ z.T
    g *= -2.0
    g += sq[start:stop, None]
    g += sq
    g[local, local + start] = np.inf  # self is never a candidate
    threshold = np.partition(g, k - 1, axis=1)[:, k - 1] + slack[start:stop]
    row, col = np.nonzero(g <= threshold[:, None])  # row-major: ascending col per row

    # difference-form distances; each chunk's two (step, d) gathers fill one budget
    d2 = np.empty(len(col))
    step = max(1, _KNN_BLOCK_BYTES // (16 * max(1, features.shape[1])))
    for lo in range(0, len(col), step):
        part = slice(lo, lo + step)
        diff = features[row[part] + start]
        diff -= features[col[part]]
        d2[part] = np.einsum("ij,ij->i", diff, diff)
    # stable: equal distances keep ascending col order, so the lower index wins
    order = np.lexsort((d2, row))
    first = np.searchsorted(row, local)
    return col[order[first[:, None] + np.arange(k)]]


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
