"""Student-exercise-concept relation graph and its directed decomposition.

The interaction subgraph comes from train responses only (an edge means
"answered", regardless of score); the exercise-concept subgraph mirrors the
Q-matrix. Each logical edge is split into two directed edges so that every
aggregation direction has its own adjacency, stored as compressed offsets
plus a flat tail array, with neighbors sorted for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import QMatrix, ResponseSet

DIRECTIONS = ("e2s", "s2e", "c2e", "e2c")


@dataclass(frozen=True, eq=False)
class RelationGraph:
    """Edge lists of both subgraphs plus node counts (M students, N exercises, K concepts)."""

    se_edges: np.ndarray  # (n_se, 2) distinct (student, exercise) pairs, lexsorted
    ec_edges: np.ndarray  # (n_ec, 2) distinct (exercise, concept) pairs, lexsorted
    n_students: int
    n_exercises: int
    n_concepts: int


@dataclass(frozen=True, eq=False)
class Adjacency:
    """One aggregation direction: edges flow tail -> head.

    `offsets[h]:offsets[h+1]` indexes the tails feeding head h; `heads` is
    the same grouping flattened per edge. Edge order is canonical (sorted by
    head, then tail), which fixes RNG consumption and summation order.
    """

    offsets: np.ndarray
    tails: np.ndarray
    heads: np.ndarray = field(init=False)

    def __post_init__(self):
        heads = np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))
        object.__setattr__(self, "heads", heads)

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    @property
    def n_heads(self) -> int:
        return len(self.offsets) - 1

    def indegrees(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass(frozen=True, eq=False)
class DirectedSplit:
    """The four directed adjacencies used by the aggregation layers.

    e2s: exercises into students     s2e: students into exercises
    c2e: concepts into exercises     e2c: exercises into concepts
    Only e2s/s2e (the interaction edges) are ever subject to dropout.
    """

    e2s: Adjacency
    s2e: Adjacency
    c2e: Adjacency
    e2c: Adjacency

    def adjacency(self, direction: str) -> Adjacency:
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}, expected one of {DIRECTIONS}")
        return getattr(self, direction)


def _dedup_sorted(pairs: np.ndarray) -> np.ndarray:
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]
    if len(pairs) > 1:
        keep = np.ones(len(pairs), dtype=bool)
        keep[1:] = np.any(pairs[1:] != pairs[:-1], axis=1)
        pairs = pairs[keep]
    return pairs


def build_relation_graph(train: ResponseSet, q: QMatrix) -> RelationGraph:
    """Assemble both subgraphs from train responses and the Q-matrix.

    Scores do not matter here: an edge records that the student answered the
    exercise. Every train exercise must carry at least one concept.
    """
    if len(train) == 0:
        raise ValueError("train response set is empty")
    if q.n_exercises != train.n_exercises:
        raise ValueError(
            f"Q-matrix covers {q.n_exercises} exercises but responses use {train.n_exercises}"
        )
    covered = np.zeros(train.n_exercises, dtype=bool)
    covered[q.exercises] = True
    uncovered = np.unique(train.exercises[~covered[train.exercises]])
    if len(uncovered):
        raise ValueError(f"{len(uncovered)} train exercises missing from the Q-matrix")

    se = _dedup_sorted(np.stack([train.students, train.exercises], axis=1))
    ec = _dedup_sorted(np.stack([q.exercises, q.concepts], axis=1))
    return RelationGraph(se, ec, train.n_students, train.n_exercises, q.n_concepts)


def _csr(heads: np.ndarray, tails: np.ndarray, n_heads: int) -> Adjacency:
    order = np.lexsort((tails, heads))
    heads, tails = heads[order], tails[order]
    offsets = np.zeros(n_heads + 1, dtype=np.intp)
    np.cumsum(np.bincount(heads, minlength=n_heads), out=offsets[1:])
    return Adjacency(offsets, tails.astype(np.intp))


def directed_split(g: RelationGraph) -> DirectedSplit:
    """Split each logical edge into its two directed counterparts."""
    s, e = g.se_edges[:, 0], g.se_edges[:, 1]
    ex, c = g.ec_edges[:, 0], g.ec_edges[:, 1]
    return DirectedSplit(
        e2s=_csr(s, e, g.n_students),
        s2e=_csr(e, s, g.n_exercises),
        c2e=_csr(ex, c, g.n_exercises),
        e2c=_csr(c, ex, g.n_concepts),
    )
