"""Augmentation operators: identities, statistics, and degree consistency."""

import math

import numpy as np
import pytest

from flowid.augment import (
    NOISE_MEAN,
    NOISE_STD,
    AugmentationPipeline,
    Step,
    hyperedge_weight_perturb,
    make_views,
    membership_mask,
    node_feature_mask,
    parse_pipeline,
)
from flowid.errors import ConfigError
from flowid.hypergraph import FlowHypergraph, build_flow_hypergraph
from flowid.rng import Rng


def toy_graph(n=12, d=5, k=3, seed=0):
    z = np.random.default_rng(seed).normal(size=(n, d))
    return build_flow_hypergraph(z, k)


def assert_graphs_equal(a, b):
    np.testing.assert_array_equal(a.incidence, b.incidence)
    np.testing.assert_array_equal(a.edge_weights, b.edge_weights)
    np.testing.assert_array_equal(a.node_degrees, b.node_degrees)
    np.testing.assert_array_equal(a.edge_degrees, b.edge_degrees)
    assert (a.feature_mask is None) == (b.feature_mask is None)
    if a.feature_mask is not None:
        np.testing.assert_array_equal(a.feature_mask, b.feature_mask)


def assert_degrees_follow(g):
    """Degrees derived from the graph's own (H, M), as the encoder reads them."""
    np.testing.assert_array_equal(g.node_degrees, g.incidence @ g.edge_weights)
    np.testing.assert_array_equal(g.edge_degrees, g.incidence.sum(axis=0))


# ---------------------------------------------------------------------------
# identities at p = 0
# ---------------------------------------------------------------------------

def test_probability_zero_is_identity():
    g = toy_graph()
    rng = Rng(1)
    assert node_feature_mask(g, 0.0, rng) is g
    assert hyperedge_weight_perturb(g, 0.0, rng) is g
    assert membership_mask(g, 0.0, rng) is g


def test_operators_do_not_mutate_input():
    g = toy_graph()
    snapshot = FlowHypergraph(g.incidence.copy(), g.edge_weights.copy())
    masked = node_feature_mask(g, 0.5, Rng(2))
    mask = masked.feature_mask.copy()
    node_feature_mask(masked, 0.5, Rng(5))  # combines with the mask, not into it
    hyperedge_weight_perturb(g, 0.5, Rng(3))
    membership_mask(g, 0.5, Rng(4))
    assert_graphs_equal(g, snapshot)
    np.testing.assert_array_equal(masked.feature_mask, mask)


# ---------------------------------------------------------------------------
# node feature masking
# ---------------------------------------------------------------------------

def test_nf_masks_whole_rows_and_nothing_else():
    g = toy_graph()
    out = node_feature_mask(g, 0.5, Rng(7))
    assert out.feature_mask.shape == (g.num_nodes,)
    assert set(np.unique(out.feature_mask)) == {0.0, 1.0}
    assert out.incidence is g.incidence and out.edge_weights is g.edge_weights
    # a second mask keeps every row the first one dropped
    again = node_feature_mask(out, 0.5, Rng(8))
    assert np.all(again.feature_mask <= out.feature_mask)


@pytest.mark.parametrize("p", [0.2, 0.4])
def test_nf_mask_rate_within_binomial_bound(p):
    n = 100_000
    rng = Rng(123).child("nf", int(p * 10))
    dropped = rng.bernoulli(p, n)  # same draw the operator makes
    g_small = toy_graph()
    out = node_feature_mask(g_small, p, Rng(123).child("small"))
    assert out.feature_mask is not None
    count = int(dropped.sum())
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(count - n * p) <= 3 * sigma


def test_nf_rate_statistics_on_large_graph():
    # exercise the operator itself at scale: one feature per node keeps it cheap
    n = 100_000
    g = FlowHypergraph(np.ones((n, 1)), np.ones(1))
    for p in (0.2, 0.4):
        out = node_feature_mask(g, p, Rng(99).child("big", int(10 * p)))
        masked = int((out.feature_mask == 0.0).sum())
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(masked - n * p) <= 3 * sigma


# ---------------------------------------------------------------------------
# hyperedge weight perturbation
# ---------------------------------------------------------------------------

def test_ew_nonnegative_and_degrees_follow():
    # 2,000 edges: about 1,200 redrawn, of which N(1, 0.5^2) puts about 2.3 %
    # below 0, so the clamp to 0 is exercised
    assert (NOISE_MEAN, NOISE_STD) == (1.0, 0.5)
    edges = 2000
    g = FlowHypergraph(np.random.default_rng(3).integers(0, 2, (50, edges)).astype(float),
                       np.ones(edges))
    out = hyperedge_weight_perturb(g, 0.6, Rng(5))
    assert np.all(out.edge_weights >= 0.0)
    assert np.any(out.edge_weights == 0.0)
    assert np.any((out.edge_weights != g.edge_weights) & (out.edge_weights > 0.0))
    assert_degrees_follow(out)
    np.testing.assert_array_equal(out.edge_degrees, g.edge_degrees)  # unchanged
    assert out.incidence is g.incidence and out.feature_mask is None


# ---------------------------------------------------------------------------
# membership masking
# ---------------------------------------------------------------------------

def test_ed_monotone_and_degrees_consistent():
    g = toy_graph(n=40, k=5, seed=9)
    out = membership_mask(g, 0.4, Rng(11))
    assert np.all(out.incidence <= g.incidence)
    assert out.incidence.sum() < g.incidence.sum()
    assert_degrees_follow(out)
    assert out.edge_weights is g.edge_weights and out.feature_mask is None


def test_ed_surviving_membership_rate():
    g = FlowHypergraph(np.ones((400, 300)), np.ones(300))
    p = 0.4
    out = membership_mask(g, p, Rng(17))
    nnz = g.incidence.sum()
    survived = out.incidence.sum()
    sigma = math.sqrt(nnz * p * (1 - p))
    assert abs(survived - (1 - p) * nnz) <= 3 * sigma


# ---------------------------------------------------------------------------
# pipelines and views
# ---------------------------------------------------------------------------

def test_make_views_identity_pipelines():
    g = toy_graph()
    v1, v2 = make_views(g, AugmentationPipeline(), AugmentationPipeline(), Rng(1))
    assert_graphs_equal(v1, g)
    assert_graphs_equal(v2, g)


def test_make_views_deterministic():
    g = toy_graph(n=25, k=3, seed=21)
    t1 = parse_pipeline("nf:0.4")
    t2 = parse_pipeline("ed:0.4")
    a1, a2 = make_views(g, t1, t2, Rng(42))
    b1, b2 = make_views(g, t1, t2, Rng(42))
    assert_graphs_equal(a1, b1)
    assert_graphs_equal(a2, b2)
    # the two views draw from independent substreams
    c1, c2 = make_views(g, t1, t1, Rng(42))
    assert not np.array_equal(c1.feature_mask, c2.feature_mask)


def test_pipeline_composition_nf_then_ed():
    g = toy_graph(n=30, k=4, seed=2)
    pipeline = AugmentationPipeline((Step("nf", 0.5), Step("ed", 0.5)))
    out = pipeline.apply(g, Rng(33))
    masked_rows = np.flatnonzero(out.feature_mask == 0.0)
    assert masked_rows.size > 0
    assert np.all(out.incidence <= g.incidence)
    assert out.incidence.sum() < g.incidence.sum()
    assert_degrees_follow(out)


def test_parse_pipeline_round_trip_and_errors():
    p = parse_pipeline("nf:0.4,ew:0.2,ed:0.1")
    assert p.steps == (Step("nf", 0.4), Step("ew", 0.2), Step("ed", 0.1))
    assert p.spec_string() == "nf:0.4,ew:0.2,ed:0.1"
    assert parse_pipeline("iden").steps == ()
    assert parse_pipeline("").steps == ()
    with pytest.raises(ConfigError):
        parse_pipeline("nf:1.5")
    with pytest.raises(ConfigError):
        parse_pipeline("zz:0.2")
    with pytest.raises(ConfigError):
        parse_pipeline("nf")
    with pytest.raises(ConfigError):
        node_feature_mask(toy_graph(), -0.1, Rng(0))
