"""Dual InfoNCE objectives over contrastive view pairs.

For each row i of view 1 the positive is row i of view 2 and the negatives
are every other view-2 row; the denominator sums the exponentiated cosine
similarities over all counterpart rows (positive included), so each term is
nonnegative. The symmetric direction swaps the views, and the loss averages
both over 2N anchors. Hyperedge rows get the identical treatment.
"""

from __future__ import annotations

import numpy as np

from . import tensor_core as tc
from .errors import ConfigError, ShapeError
from .tensor_core import Tensor


def _normalize_rows(x: Tensor, eps: float) -> Tensor:
    # sqrt(|x|^2 + eps^2) equals eps at zero rows and stays within eps of the
    # true norm elsewhere; keeping eps under the root keeps the gradient
    # finite at exactly-zero rows (sqrt alone has infinite slope at 0);
    # np.square, unlike float arithmetic, reports an overflow to np.errstate
    return x / tc.sqrt(tc.tsum(x * x, axis=1, keepdims=True) + np.square(eps))


def _info_nce(a: Tensor, b: Tensor, tau: float, eps: float) -> Tensor:
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"views must share (N, d) shape, got {a.shape} vs {b.shape}")
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    n = a.shape[0]
    na = _normalize_rows(a, eps)
    nb = _normalize_rows(b, eps)
    sims = tc.matmul(na, tc.transpose2d(nb)) * (1.0 / tau)
    diag = tc.pick(sims, np.arange(n), np.arange(n))
    # anchor in view 1 vs all of view 2 (rows), then the swapped direction (columns)
    loss_12 = tc.logsumexp_last(sims) - diag
    loss_21 = tc.logsumexp_last(tc.transpose2d(sims)) - diag
    return tc.tsum(loss_12 + loss_21) * (1.0 / (2.0 * n))


def node_node_loss(v1, v2, tau_n: float, eps: float) -> Tensor:
    """Flow-to-flow contrast between projected node embeddings of two views;
    `eps` > 0 stabilizes the row norms (TrainConfig.cosine_eps)."""
    return _info_nce(tc.as_tensor(v1), tc.as_tensor(v2), tau_n, eps)


def group_group_loss(e1, e2, tau_g: float, eps: float) -> Tensor:
    """Group-to-group contrast between projected hyperedge embeddings."""
    return _info_nce(tc.as_tensor(e1), tc.as_tensor(e2), tau_g, eps)
