"""Flow hypergraph: KNN hyperedges plus incidence, weight, and degree matrices.

One hyperedge per flow: the flow itself and its K nearest neighbors in
Euclidean feature space, HGNN's KNN construction (Feng et al.,
arXiv:1809.09401). Hyperedge weights start at 1. Node degrees are weighted
row sums of the incidence matrix; hyperedge degrees are plain column sums.

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError

# Byte budget for one block of the (N, N) GEMM distance matrix: a block holds
# budget // (8 N) query rows, so scratch memory stays near a few budgets
# beyond the (N, N) incidence matrix whatever the snapshot size.
_KNN_BLOCK_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class FlowHypergraph:
    """The structure the encoder reads; node features travel separately."""

    incidence: np.ndarray              # (N, E) binary float64
    edge_weights: np.ndarray           # (E,) diagonal of M
    feature_mask: Optional[np.ndarray] = None  # (N,) kept-row mask set by augmentation

    @property
    def num_nodes(self) -> int:
        return self.incidence.shape[0]

    @property
    def num_edges(self) -> int:
        return self.incidence.shape[1]

    @property
    def node_degrees(self) -> np.ndarray:
        """(N,) diagonal of D_v: weighted membership sums."""
        return self.incidence @ self.edge_weights

    @property
    def edge_degrees(self) -> np.ndarray:
        """(E,) diagonal of D_e: member counts."""
        return self.incidence.sum(axis=0)


def knn_hyperedges(features: np.ndarray, k: int) -> np.ndarray:
    """Incidence matrix H (N x N): column i is flow i's hyperedge.

    Members are flow i itself and the K flows nearest to it by squared
    Euclidean distance (self excluded from candidates, distance ties broken
    by lower flow index). The distance that ranks flows is the difference
    form D_ij = sum_t (x_it - x_jt)^2, computed as written.

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


def build_flow_hypergraph(features: np.ndarray, k: int) -> FlowHypergraph:
    """KNN hyperedges over `features` with unit weights (M = I)."""
    incidence = knn_hyperedges(features, k)
    return FlowHypergraph(incidence, np.ones(incidence.shape[1], dtype=np.float64))

