"""Student-exercise-concept relation graph and its directed decomposition.

The interaction subgraph comes from train responses only (an edge means
"answered", regardless of score); the exercise-concept subgraph mirrors the
Q-matrix. Each logical edge is split into two directed edges so that every
aggregation direction has its own adjacency: a per-edge head array and tail
array, sorted by head and then tail for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """One aggregation direction as an edge list: edge i flows tails[i] -> heads[i].

    Edges are sorted by head, then tail, which fixes RNG consumption and
    summation order; heads run over 0..n_heads-1, and a head may have no edge.
    """

    heads: np.ndarray
    tails: np.ndarray
    n_heads: int

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def indegrees(self) -> np.ndarray:
        return np.bincount(self.heads, minlength=self.n_heads)


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


def _distinct_pairs(a: np.ndarray, b: np.ndarray, n_b: int) -> np.ndarray:
    """The distinct (a, b) pairs as an (n, 2) array sorted by a, then b."""
    return np.stack(np.divmod(np.unique(a * n_b + b), n_b), axis=1)


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

    se = _distinct_pairs(train.students, train.exercises, train.n_exercises)
    ec = _distinct_pairs(q.exercises, q.concepts, q.n_concepts)
    return RelationGraph(se, ec, train.n_students, train.n_exercises, q.n_concepts)


def _by_head(heads: np.ndarray, tails: np.ndarray, n_heads: int) -> Adjacency:
    """The edges tails[i] -> heads[i] sorted by head, then tail. They come from
    a pair list sorted by its first column, then its second, so either column
    ascends within each value of the other, and one stable sort by head
    leaves the tails ascending within each head."""
    order = np.argsort(heads, kind="stable")
    return Adjacency(
        heads[order].astype(np.intp, copy=False), tails[order].astype(np.intp, copy=False), n_heads
    )


def directed_split(g: RelationGraph) -> DirectedSplit:
    """Split each logical edge into its two directed counterparts."""
    s, e = g.se_edges[:, 0], g.se_edges[:, 1]
    ex, c = g.ec_edges[:, 0], g.ec_edges[:, 1]
    return DirectedSplit(
        e2s=_by_head(s, e, g.n_students),
        s2e=_by_head(e, s, g.n_exercises),
        c2e=_by_head(ex, c, g.n_exercises),
        e2c=_by_head(c, ex, g.n_concepts),
    )
