"""Closed forms, double-loop oracle, and invariances for the InfoNCE pair."""

import math

import numpy as np
import pytest

import flowid.tensor_core as tc
from flowid.config import TrainConfig
from flowid.contrast import group_group_loss, node_node_loss
from flowid.errors import ConfigError
from flowid.tensor_core import ParameterStore
from gradcheck import grad_check

EPS = 1e-8  # TrainConfig's default cosine_eps


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
    loss = node_node_loss(v, v, tau_n=0.7, eps=EPS)
    assert abs(float(loss.data)) <= 1e-12


def test_two_orthonormal_samples_closed_form():
    v = np.eye(2)
    loss = node_node_loss(v, v, tau_n=1.0, eps=EPS)
    assert abs(float(loss.data) - math.log(1.0 + math.exp(-1.0))) <= 1e-6
    assert abs(float(loss.data) - 0.313262) <= 1e-6


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(5)
    v1 = rng.normal(size=(7, 4))
    v2 = rng.normal(size=(7, 4))
    for tau in (0.5, 1.0, 2.0):
        ours = float(node_node_loss(v1, v2, tau, eps=EPS).data)
        assert abs(ours - double_loop_loss(v1, v2, tau)) <= 1e-10
        ours_g = float(group_group_loss(v1, v2, tau, eps=EPS).data)
        assert abs(ours_g - double_loop_loss(v1, v2, tau)) <= 1e-10


def test_view_swap_symmetry():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 5))
    b = rng.normal(size=(6, 5))
    for loss in (node_node_loss, group_group_loss):
        assert abs(float(loss(a, b, 0.5, eps=EPS).data)
                   - float(loss(b, a, 0.5, eps=EPS).data)) <= 1e-12


def test_positive_scale_invariance():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    base = float(node_node_loss(a, b, 0.5, eps=EPS).data)
    scales = np.abs(rng.normal(size=5)) + 0.1
    scaled = float(node_node_loss(a * scales[:, None], b * 7.3, 0.5, eps=EPS).data)
    assert abs(base - scaled) <= 1e-10


def test_every_term_nonnegative():
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        assert float(node_node_loss(a, b, 0.5, eps=EPS).data) >= 0.0


def test_zero_norm_row_gives_a_finite_loss():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.eye(2)
    loss = node_node_loss(a, b, 0.5, eps=EPS)
    assert np.isfinite(float(loss.data))


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
        return node_node_loss(s.get("v1"), s.get("v2"), 0.5, eps=EPS)

    report = grad_check(loss, store, h=1e-5, tol=1e-4)
    assert report.passed, report.worst()


@pytest.mark.parametrize("loss", [node_node_loss, group_group_loss])
def test_infinite_temperature_limit_is_log_n(loss):
    # every similarity / tau underflows to 0, so each anchor's positive is one
    # of N equal terms: InfoNCE's exact limit as tau grows without bound
    rng = np.random.default_rng(4)
    v1, v2 = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
    assert abs(float(loss(v1, v2, 1e308, eps=EPS).data) - math.log(7)) <= 1e-12


def test_contrast_config_validation():
    cfg = TrainConfig()
    assert cfg.tau_n == 0.5 and cfg.tau_g == 0.5
    with pytest.raises(ConfigError):
        TrainConfig(tau_n=0.0).validate()
    with pytest.raises(ConfigError):
        node_node_loss(np.eye(2), np.eye(2), tau_n=-1.0, eps=EPS)
