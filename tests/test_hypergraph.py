"""KNN hyperedge construction against the brute-force oracle, degrees, export."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowid import hypergraph
from flowid.errors import ConfigError
from flowid.hypergraph import (
    FlowHypergraph,
    build_flow_hypergraph,
    knn_hyperedges,
)


def brute_force_hyperedges(features, k):
    """O(N^2) oracle: per-flow distance sort with (distance, index) tie rule."""
    n = len(features)
    h = np.zeros((n, n))
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d2 = sum((features[i][t] - features[j][t]) ** 2 for t in range(len(features[i])))
            dists.append((d2, j))
        dists.sort()
        for _, j in dists[:k]:
            h[j, i] = 1.0
        h[i, i] = 1.0
    return h


_REFERENCE_BLOCK_BYTES = 4 * 1024 * 1024


def difference_form_reference(features, k):
    """Block-einsum brute force over every flow, kept verbatim as the oracle
    for the GEMM candidate search."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ConfigError(f"features must be (N, d), got {features.shape}")
    n = features.shape[0]
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    if n <= k:
        raise ConfigError(f"need more flows than neighbors: N={n}, K={k}")

    h = np.zeros((n, n), dtype=np.float64)
    block = max(1, _REFERENCE_BLOCK_BYTES // max(1, 8 * n * features.shape[1]))
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
            h[i, i] = 1.0
    return h


def test_three_flow_hand_example():
    z = np.array([[0.0], [1.0], [10.0]])
    h = knn_hyperedges(z, k=1)
    #      e0       e1       e2
    expected = np.array([
        [1.0, 1.0, 0.0],   # v0 in e0 (self), e1 (nearest to v1)
        [1.0, 1.0, 1.0],   # v1 in all three
        [0.0, 0.0, 1.0],   # v2 only in its own edge
    ])
    np.testing.assert_array_equal(h, expected)


def test_k_equals_n_minus_one_complete():
    z = np.random.default_rng(0).normal(size=(6, 4))
    h = knn_hyperedges(z, k=5)
    np.testing.assert_array_equal(h, np.ones((6, 6)))


def test_byte_sized_blocks_match_sort_oracle(monkeypatch):
    # an 8 KiB budget gives 8192 // (8 * 70) = 14 query rows per block of the
    # 70 x 70 GEMM distance matrix: 5 blocks
    monkeypatch.setattr(hypergraph, "_KNN_BLOCK_BYTES", 8192)
    rng = np.random.default_rng(8)
    z = rng.integers(0, 3, size=(70, 4)).astype(np.float64)  # many exact ties
    for k in (1, 4):
        d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        expected = np.zeros((70, 70))
        for i in range(70):
            # lexsort: distance first, then the lower flow index
            nearest = np.lexsort((np.arange(70), d2[i]))[:k]
            expected[nearest, i] = 1.0
            expected[i, i] = 1.0
        np.testing.assert_array_equal(knn_hyperedges(z, k), expected)


def test_matches_brute_force_oracle_200_points():
    rng = np.random.default_rng(42)
    z = rng.normal(size=(200, 16))
    for k in (1, 3, 5):
        h = knn_hyperedges(z, k)
        oracle = brute_force_hyperedges(z, k)
        np.testing.assert_array_equal(h, oracle)


def test_tie_breaking_prefers_lower_index():
    # flows 1 and 2 are equidistant from flow 0
    z = np.array([[0.0], [2.0], [-2.0], [50.0]])
    h = knn_hyperedges(z, k=1)
    assert h[1, 0] == 1.0 and h[2, 0] == 0.0


def test_small_n_rejected():
    with pytest.raises(ConfigError):
        knn_hyperedges(np.zeros((3, 2)), k=3)
    with pytest.raises(ConfigError):
        knn_hyperedges(np.zeros((4, 2)), k=0)


def test_one_dimensional_features_rejected():
    with pytest.raises(ConfigError, match=r"features must be \(N, d\)"):
        knn_hyperedges(np.zeros(5), k=1)


def test_degree_hand_example():
    h = np.array([
        [1.0, 1.0, 0.0],
        [1.0, 1.0, 1.0],
        [0.0, 0.0, 1.0],
    ])
    g = FlowHypergraph(h, np.ones(3))
    np.testing.assert_array_equal(g.node_degrees, [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(g.edge_degrees, [2.0, 2.0, 2.0])


def test_degree_linear_in_weights():
    h = np.array([[1.0, 0.0], [1.0, 1.0]])
    g1 = FlowHypergraph(h, np.array([1.0, 2.0]))
    g2 = FlowHypergraph(h, np.array([2.0, 4.0]))
    np.testing.assert_array_equal(g2.node_degrees, 2 * g1.node_degrees)
    np.testing.assert_array_equal(g1.edge_degrees, g2.edge_degrees)


def test_degree_identity_incidence():
    g = FlowHypergraph(np.eye(4), np.ones(4))
    np.testing.assert_array_equal(g.node_degrees, np.ones(4))
    np.testing.assert_array_equal(g.edge_degrees, np.ones(4))


def test_build_composes_and_matches_examples():
    z = np.array([[0.0], [1.0], [10.0]])
    g = build_flow_hypergraph(z, k=1)
    np.testing.assert_array_equal(g.incidence, knn_hyperedges(z, 1))
    np.testing.assert_array_equal(g.edge_weights, np.ones(3))
    np.testing.assert_array_equal(g.node_degrees, [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(g.edge_degrees, [2.0, 2.0, 2.0])
    assert g.feature_mask is None


def test_default_k3_membership_count():
    z = np.random.default_rng(9).normal(size=(30, 5))
    g = build_flow_hypergraph(z, k=3)
    np.testing.assert_array_equal(g.incidence.sum(axis=0), np.full(30, 4.0))
    assert np.all(np.diag(g.incidence) == 1.0)


def test_permutation_equivariance():
    rng = np.random.default_rng(17)
    z = rng.normal(size=(25, 6))
    perm = rng.permutation(25)
    g = build_flow_hypergraph(z, k=3)
    gp = build_flow_hypergraph(z[perm], k=3)
    # permuted node i corresponds to original perm[i]; hyperedge i likewise
    np.testing.assert_array_equal(gp.incidence, g.incidence[perm][:, perm])
    np.testing.assert_array_equal(gp.node_degrees, g.node_degrees[perm])
    np.testing.assert_array_equal(gp.edge_degrees, g.edge_degrees[perm])


@given(st.floats(min_value=0.01, max_value=1000.0))
@settings(max_examples=30, deadline=None)
def test_positive_scaling_leaves_incidence_unchanged(scale):
    z = np.random.default_rng(23).normal(size=(20, 4))
    base = knn_hyperedges(z, 3)
    scaled = knn_hyperedges(z * scale, 3)
    np.testing.assert_array_equal(base, scaled)


def test_degrees_positive_with_unit_weights():
    z = np.random.default_rng(5).normal(size=(15, 3))
    g = build_flow_hypergraph(z, k=2)
    np.testing.assert_array_equal(g.node_degrees, g.incidence.sum(axis=1))
    np.testing.assert_array_equal(g.edge_degrees, g.incidence.sum(axis=0))
    assert np.all(g.node_degrees > 0) and np.all(g.edge_degrees > 0)


def export_text(graph: FlowHypergraph, features: np.ndarray) -> str:
    """Inspection/golden format: node section then one line per hyperedge
    (weight followed by member indices)."""
    n, d = features.shape
    lines = [f"#nodes {n} {d}"]
    for row in features:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append(f"#edges {graph.num_edges}")
    for j in range(graph.num_edges):
        members = np.flatnonzero(graph.incidence[:, j])
        lines.append(" ".join([repr(float(graph.edge_weights[j]))]
                              + [str(int(i)) for i in members]))
    return "\n".join(lines) + "\n"


def test_export_text_golden():
    z = np.array([[0.0], [1.0], [10.0]])
    g = build_flow_hypergraph(z, k=1)
    expected = (
        "#nodes 3 1\n"
        "0.0\n"
        "1.0\n"
        "10.0\n"
        "#edges 3\n"
        "1.0 0 1\n"
        "1.0 0 1\n"
        "1.0 1 2\n"
    )
    assert export_text(g, z) == expected


def _adversarial(name):
    rng = np.random.default_rng(31)
    if name == "duplicated_rows":  # zero-distance ties, as identical flows give
        base = rng.normal(size=(40, 12))
        return base[rng.integers(0, 40, size=90)]
    if name == "one_ulp_near_ties":
        z = np.repeat(rng.normal(size=(1, 8)), 60, axis=0)
        cols = rng.integers(0, 8, size=60)
        z[np.arange(60), cols] = np.nextafter(z[np.arange(60), cols], np.inf)
        return z
    if name == "offset_1e6":
        return rng.normal(size=(80, 24)) + 1e6
    if name == "offset_1e12":
        return rng.normal(size=(80, 24)) + 1e12
    if name == "integer_grid":
        return rng.integers(0, 3, size=(150, 5)).astype(np.float64)
    if name == "far_clusters":  # rounding of |z|^2 dwarfs in-cluster distances
        z = rng.normal(size=(80, 24)) * 1e-3
        z[:40] += 1e6
        z[40:] -= 1e6
        return z
    if name == "subnormal_scale":  # squared terms are subnormal
        return rng.normal(size=(50, 8)) * 1e-161
    return rng.normal(size=(300, 512))  # a train_ref-sized snapshot


@pytest.mark.parametrize("name", ["duplicated_rows", "one_ulp_near_ties", "offset_1e6",
                                  "offset_1e12", "integer_grid", "far_clusters",
                                  "subnormal_scale", "n300_d512"])
def test_gemm_candidates_match_difference_form(name):
    z = _adversarial(name)
    for k in (1, 3, 7):
        np.testing.assert_array_equal(knn_hyperedges(z, k), difference_form_reference(z, k))


@st.composite
def _partly_duplicated_rows(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    distinct = draw(st.integers(1, n))
    values = draw(st.lists(st.floats(-1e6, 1e6) | st.integers(-3, 3).map(float),
                           min_size=distinct * d, max_size=distinct * d))
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    k = draw(st.integers(1, n - 1))
    return np.array(values).reshape(distinct, d)[picks], k


@given(_partly_duplicated_rows())
@settings(max_examples=50, deadline=None)
def test_random_and_duplicated_rows_match_difference_form(case):
    z, k = case
    np.testing.assert_array_equal(knn_hyperedges(z, k), difference_form_reference(z, k))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "overflow"])
def test_non_finite_or_overflowing_features_rejected(bad):
    z = np.random.default_rng(2).normal(size=(10, 4))
    if bad == "overflow":
        z[3, 1] = 1e300  # finite, but its squared distances are not
    else:
        z[3, 1] = float(bad)
    with pytest.raises(ConfigError):
        knn_hyperedges(z, 3)


@pytest.mark.parametrize("rows,d,budgets", [
    ("random", 512, 3),
    ("identical", 64, 8),  # every flow ties with every other: all are candidates
])
def test_scratch_memory_stays_near_block_budget(rows, d, budgets):
    n = 1000
    z = (np.random.default_rng(4).normal(size=(n, d)) if rows == "random"
         else np.ones((n, d)))
    tracemalloc.start()
    try:
        h = knn_hyperedges(z, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the incidence matrix, the centred copy of the features, and a few
    # block-sized temporaries (GEMM block, its partition, candidate lists)
    assert peak <= h.nbytes + z.nbytes + budgets * hypergraph._KNN_BLOCK_BYTES
