"""Dual InfoNCE objectives over contrastive view pairs.

For each row i of view 1 the positive is row i of view 2 and the negatives
are every other view-2 row; the denominator sums the exponentiated cosine
similarities over all counterpart rows (positive included), so each term is
nonnegative. The symmetric direction swaps the views, and the loss averages
both over 2N anchors. Hyperedge rows get the identical treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .errors import ConfigError, DegenerateEmbeddingError, ShapeError
from .tensor_core import Tensor


@dataclass(frozen=True)
class ContrastConfig:
    tau_n: float = 0.5
    tau_g: float = 0.5

    def __post_init__(self):
        if not all(0 < tau < math.inf for tau in (self.tau_n, self.tau_g)):  # NaN fails
            raise ConfigError(f"temperatures must be positive and finite, "
                              f"got {self.tau_n}, {self.tau_g}")


def _normalize_rows(x: Tensor, eps: float, what: str) -> Tensor:
    norms_sq = tc.tsum(x * x, axis=1, keepdims=True)
    if eps == 0.0:
        if np.any(norms_sq.data <= 0.0):
            rows = np.flatnonzero(norms_sq.data[:, 0] <= 0.0)
            raise DegenerateEmbeddingError(
                f"zero-norm {what} row(s) {rows.tolist()[:5]}: cosine similarity "
                "undefined (set cosine_eps > 0 to stabilize)")
        return x / tc.sqrt(norms_sq)
    # stabilized: sqrt(|x|^2 + eps^2) equals eps at zero rows and stays within
    # eps of the true norm elsewhere; keeping eps under the root keeps the
    # gradient finite at exactly-zero rows (sqrt alone has infinite slope at 0)
    return x / tc.sqrt(norms_sq + eps * eps)


def _info_nce(a: Tensor, b: Tensor, tau: float, eps: float, what: str) -> Tensor:
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"views must share (N, d) shape, got {a.shape} vs {b.shape}")
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    n = a.shape[0]
    na = _normalize_rows(a, eps, what)
    nb = _normalize_rows(b, eps, what)
    sims = tc.matmul(na, tc.transpose2d(nb)) * (1.0 / tau)
    diag = tc.take_per_row(sims, np.arange(n))
    # anchor in view 1 vs all of view 2 (rows), then the swapped direction (columns)
    loss_12 = tc.logsumexp_last(sims) - diag
    loss_21 = tc.logsumexp_last(tc.transpose2d(sims)) - diag
    return tc.tsum(loss_12 + loss_21) * (1.0 / (2.0 * n))


def node_node_loss(v1, v2, tau_n: float, eps: float = 0.0) -> Tensor:
    """Flow-to-flow contrast between projected node embeddings of two views."""
    return _info_nce(tc.as_tensor(v1), tc.as_tensor(v2), tau_n, eps, "node embedding")


def group_group_loss(e1, e2, tau_g: float, eps: float = 0.0) -> Tensor:
    """Group-to-group contrast between projected hyperedge embeddings."""
    return _info_nce(tc.as_tensor(e1), tc.as_tensor(e2), tau_g, eps, "hyperedge embedding")
