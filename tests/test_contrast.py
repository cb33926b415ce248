"""Closed forms, double-loop oracle, and invariances for the InfoNCE pair."""

import math

import numpy as np
import pytest

import flowid.tensor_core as tc
from flowid.contrast import ContrastConfig, group_group_loss, node_node_loss
from flowid.errors import ConfigError, DegenerateEmbeddingError
from flowid.tensor_core import ParameterStore
from gradcheck import grad_check


def double_loop_loss(v1, v2, tau):
    """Naive per-anchor evaluation of the symmetric contrastive loss."""

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    n = len(v1)
    total = 0.0
    for i in range(n):
        den_12 = sum(math.exp(cos(v1[i], v2[t]) / tau) for t in range(n))
        total += -math.log(math.exp(cos(v1[i], v2[i]) / tau) / den_12)
        den_21 = sum(math.exp(cos(v2[i], v1[t]) / tau) for t in range(n))
        total += -math.log(math.exp(cos(v2[i], v1[i]) / tau) / den_21)
    return total / (2 * n)


def test_single_sample_identical_views_is_zero():
    v = np.array([[0.3, -0.7, 1.1]])
    loss = node_node_loss(v, v, tau_n=0.7)
    assert abs(loss.item()) <= 1e-12


def test_two_orthonormal_samples_closed_form():
    v = np.eye(2)
    loss = node_node_loss(v, v, tau_n=1.0)
    assert abs(loss.item() - math.log(1.0 + math.exp(-1.0))) <= 1e-6
    assert abs(loss.item() - 0.313262) <= 1e-6


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(5)
    v1 = rng.normal(size=(7, 4))
    v2 = rng.normal(size=(7, 4))
    for tau in (0.5, 1.0, 2.0):
        ours = node_node_loss(v1, v2, tau).item()
        assert abs(ours - double_loop_loss(v1, v2, tau)) <= 1e-10
        ours_g = group_group_loss(v1, v2, tau).item()
        assert abs(ours_g - double_loop_loss(v1, v2, tau)) <= 1e-10


def test_view_swap_symmetry():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 5))
    b = rng.normal(size=(6, 5))
    assert abs(node_node_loss(a, b, 0.5).item() - node_node_loss(b, a, 0.5).item()) <= 1e-12
    assert abs(group_group_loss(a, b, 0.5).item() - group_group_loss(b, a, 0.5).item()) <= 1e-12


def test_positive_scale_invariance():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    base = node_node_loss(a, b, 0.5).item()
    scales = np.abs(rng.normal(size=5)) + 0.1
    scaled = node_node_loss(a * scales[:, None], b * 7.3, 0.5).item()
    assert abs(base - scaled) <= 1e-10


def test_every_term_nonnegative():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        assert node_node_loss(a, b, 0.5).item() >= 0.0


def test_zero_norm_row_raises_unless_eps():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.eye(2)
    with pytest.raises(DegenerateEmbeddingError):
        node_node_loss(a, b, 0.5)
    loss = node_node_loss(a, b, 0.5, eps=1e-8)
    assert np.isfinite(loss.item())


def test_eps_keeps_gradients_finite_at_zero_rows():
    # sqrt alone has infinite slope at 0; the stabilized norm must not produce
    # NaN gradients when a whole row is masked to zero
    store = ParameterStore()
    store.add("v1", np.array([[1.0, 0.5], [0.0, 0.0]]))
    store.add("v2", np.eye(2))
    loss = node_node_loss(store.get("v1"), store.get("v2"), 0.5, eps=1e-6)
    tc.backward(loss)
    for name in ("v1", "v2"):
        assert np.all(np.isfinite(store.get(name).grad)), name


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    store = ParameterStore()
    store.add("v1", rng.normal(size=(4, 3)))
    store.add("v2", rng.normal(size=(4, 3)))

    def loss(s):
        return node_node_loss(s.get("v1"), s.get("v2"), 0.5)

    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


def test_contrast_config_validation():
    cfg = ContrastConfig()
    assert cfg.tau_n == 0.5 and cfg.tau_g == 0.5
    with pytest.raises(ConfigError):
        ContrastConfig(tau_n=0.0)
    with pytest.raises(ConfigError):
        node_node_loss(np.eye(2), np.eye(2), tau_n=-1.0)
