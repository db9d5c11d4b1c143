"""Sparse-view generation for the interaction subgraph.

Each directed interaction edge is kept independently with a probability that
shrinks with the indegree of its head (aggregating) node: importance
t = k / ln(d + theta), clamped into [p_min, 1]. Low-degree nodes therefore
keep their edges (with defaults a degree-1 node always does), high-degree
nodes are thinned. Exercise-concept edges are never touched.

A uniform-probability variant backs the matched-random ablation; its single
retention probability is calibrated so both strategies keep the same number
of edges in expectation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import distinct_ids
from .relgraph import Adjacency, DirectedSplit


def require_finite(obj, names) -> None:
    """Refuse a bool, a non-number or a non-finite value in each named field."""
    for name in names:
        value = getattr(obj, name)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class DropoutParams:
    """k scales overall retention, theta keeps ln() away from 0, p_min floors it."""

    k: float = 1.0
    theta: float = 0.01
    p_min: float = 0.3

    def __post_init__(self):
        require_finite(self, ("k", "theta", "p_min"))
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if not 0.0 < self.p_min <= 1.0:
            raise ValueError("p_min must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class View:
    """Per-direction retained-edge masks over the interaction subgraph.

    A 1-D mask is one view; k stacked rows, shape (k, E), are k views that
    `scdmodel.gcn_forward` runs as one k-copy disjoint union.
    """

    kept_e2s: np.ndarray
    kept_s2e: np.ndarray


def edge_importance(d: int, p: DropoutParams) -> float:
    """t = k / ln(d + theta) for an edge whose head node has indegree d."""
    if d < 1:
        raise ValueError("edges only exist at nodes with indegree >= 1")
    return p.k / math.log(d + p.theta)


def retention_prob(t: float, p_min: float) -> float:
    """Clamp an importance value into the [p_min, 1] retention range."""
    if t <= p_min:
        return p_min
    if t <= 1.0:
        return t
    return 1.0


def _edge_probs(adj: Adjacency, p: DropoutParams) -> np.ndarray:
    degrees = adj.indegrees()
    lookup = np.zeros(int(degrees.max(initial=0)) + 1)
    for d in distinct_ids(degrees[degrees > 0]):
        lookup[d] = retention_prob(edge_importance(int(d), p), p.p_min)
    return lookup[degrees[adj.heads]]


def _interaction_probs(split: DirectedSplit, p: DropoutParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge retention probabilities of the e2s and s2e edges."""
    return _edge_probs(split.e2s, p), _edge_probs(split.s2e, p)


def _uniforms(adj: Adjacency, rng: np.random.Generator) -> np.ndarray:
    """One uniform per edge, drawn in (head, tail) order and stored at its edge."""
    u = np.empty(adj.n_edges)
    u[adj.head_order] = rng.random(adj.n_edges)
    return u


def _draw(split: DirectedSplit, p_e2s, p_s2e, rng: np.random.Generator) -> View:
    """Keep each interaction edge whose uniform falls under its probability (an
    array per edge, or one number). The RNG is consumed e2s first, then s2e,
    one uniform per edge in (head, tail) order, whatever order the edges are
    stored in; each uniform lands at its stored edge through the direction's
    `head_order`, computed once per split. So identical seeds give identical
    views, and a (head, tail) pair keeps its uniform under any storage order."""
    return View(_uniforms(split.e2s, rng) < p_e2s, _uniforms(split.s2e, rng) < p_s2e)


def generate_view_pair(
    split: DirectedSplit, p: DropoutParams, rng: np.random.Generator
) -> tuple[View, View]:
    """Two independent importance-based draws from the same generator stream:
    each interaction edge kept i.i.d. Bernoulli in each."""
    probs = _interaction_probs(split, p)
    return _draw(split, *probs, rng), _draw(split, *probs, rng)


def generate_random_view(
    split: DirectedSplit, p_uniform: float, rng: np.random.Generator
) -> View:
    """Ablation variant: every directed edge kept i.i.d. with one probability."""
    if not 0.0 < p_uniform <= 1.0:
        raise ValueError("p_uniform must lie in (0, 1]")
    return _draw(split, p_uniform, p_uniform, rng)


def matched_uniform_p(split: DirectedSplit, p: DropoutParams) -> float:
    """Uniform retention probability whose expected kept-edge count matches
    the importance-based strategy (the mean retention probability over all
    directed interaction edges)."""
    directions = zip((split.e2s, split.s2e), _interaction_probs(split, p))
    # summed in (head, tail) order, so the mean does not depend on how edges are stored
    probs = np.concatenate([q[adj.head_order] for adj, q in directions])
    if len(probs) == 0:
        raise ValueError("split has no interaction edges")
    return float(probs.mean())


def retention_table(
    split: DirectedSplit, p: DropoutParams, draws: int, rng: np.random.Generator
) -> list[dict]:
    """Per-degree audit rows: importance, retention probability, and the
    empirical keep frequency over `draws` views (both directions pooled)."""
    edge_deg = np.concatenate([adj.indegrees()[adj.heads] for adj in (split.e2s, split.s2e)])
    max_deg = int(edge_deg.max())
    totals = np.bincount(edge_deg, minlength=max_deg + 1)

    probs = _interaction_probs(split, p)
    kept = np.zeros(max_deg + 1)
    for _ in range(draws):
        view = _draw(split, *probs, rng)
        mask = np.concatenate([view.kept_e2s, view.kept_s2e]).astype(np.float64)
        kept += np.bincount(edge_deg, weights=mask, minlength=max_deg + 1)

    rows = []
    for deg in np.flatnonzero(totals):
        t = edge_importance(int(deg), p)
        rows.append(
            {
                "degree": int(deg),
                "importance": t,
                "retention_p": retention_prob(t, p.p_min),
                "empirical": kept[deg] / (totals[deg] * draws) if draws else float("nan"),
            }
        )
    return rows
