"""Stochastic hypergraph transformations and contrastive view assembly.

Three operators, each an independent Bernoulli draw per element with the
stated perturbation probability:
  NF p_n: mask whole node-feature rows,
  EW p_w: replace selected hyperedge weights with clamped Gaussian noise,
  ED p_m: drop individual node-hyperedge memberships.
Each returns a new graph with exactly one field replaced (the feature mask,
M or H) and leaves its input untouched; degrees follow from (H, M). A
pipeline is an ordered list of steps; an empty pipeline is the identity view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .hypergraph import FlowHypergraph
from .rng import Rng

NOISE_MEAN = 1.0  # centered on the unit initialization of M
NOISE_STD = 0.5


def _check_prob(p: float, what: str) -> None:
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"{what} must be in [0, 1), got {p}")


def node_feature_mask(graph: FlowHypergraph, p_n: float, rng: Rng) -> FlowHypergraph:
    """Mask each node's feature row independently with probability p_n."""
    _check_prob(p_n, "node mask probability p_n")
    if p_n == 0.0:
        return graph
    keep = (~rng.bernoulli(p_n, graph.num_nodes)).astype(np.float64)
    if graph.feature_mask is not None:
        keep *= graph.feature_mask
    return replace(graph, feature_mask=keep)


def hyperedge_weight_perturb(graph: FlowHypergraph, p_w: float, rng: Rng) -> FlowHypergraph:
    """Replace each hyperedge weight, independently with probability p_w, by
    max(0, Normal(NOISE_MEAN, NOISE_STD^2))."""
    _check_prob(p_w, "weight perturbation probability p_w")
    if p_w == 0.0:
        return graph
    selected = rng.bernoulli(p_w, graph.num_edges)
    noise = np.maximum(rng.normal(NOISE_MEAN, NOISE_STD, graph.num_edges), 0.0)
    return replace(graph, edge_weights=np.where(selected, noise, graph.edge_weights))


def membership_mask(graph: FlowHypergraph, p_m: float, rng: Rng) -> FlowHypergraph:
    """Drop each 1-entry of the incidence matrix independently with
    probability p_m; zero degrees are allowed (the encoder handles them)."""
    _check_prob(p_m, "membership mask probability p_m")
    if p_m == 0.0:
        return graph
    dropped = rng.bernoulli(p_m, graph.incidence.shape)
    return replace(graph, incidence=np.where(dropped, 0.0, graph.incidence))


OPS = {"nf": node_feature_mask, "ew": hyperedge_weight_perturb, "ed": membership_mask}


@dataclass(frozen=True)
class Step:
    op: str  # a key of OPS
    p: float


@dataclass(frozen=True)
class AugmentationPipeline:
    """Ordered augmentation steps; empty tuple = identity ("iden") view."""

    steps: tuple[Step, ...] = ()

    def apply(self, graph: FlowHypergraph, rng: Rng) -> FlowHypergraph:
        for i, step in enumerate(self.steps):
            graph = OPS[step.op](graph, step.p, rng.child("step", i))
        return graph

    def spec_string(self) -> str:
        if not self.steps:
            return "iden"
        return ",".join(f"{s.op}:{s.p:g}" for s in self.steps)


def parse_pipeline(spec: str) -> AugmentationPipeline:
    """Parse CLI specs like "nf:0.4,ed:0.4"; "" or "iden" is the identity."""
    spec = (spec or "").strip().lower()
    if spec in ("", "iden", "none"):
        return AugmentationPipeline()
    steps: list[Step] = []
    for part in spec.split(","):
        part = part.strip()
        try:
            op, val = part.split(":")
            p = float(val)
        except ValueError:
            raise ConfigError(f"bad augmentation step {part!r}; expected op:prob") from None
        _check_prob(p, f"probability in {part!r}")
        if op not in OPS:
            raise ConfigError(f"unknown augmentation op {op!r} (use nf/ew/ed)")
        steps.append(Step(op, p))
    return AugmentationPipeline(tuple(steps))


def make_views(graph: FlowHypergraph, t1: AugmentationPipeline,
               t2: AugmentationPipeline, rng: Rng) -> tuple[FlowHypergraph, FlowHypergraph]:
    """Apply t1/t2 to the graph with independent substreams."""
    return t1.apply(graph, rng.child("view", 1)), t2.apply(graph, rng.child("view", 2))
