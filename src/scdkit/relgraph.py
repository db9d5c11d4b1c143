"""Student-exercise-concept relation graph and its directed decomposition.

The interaction subgraph comes from train responses only (an edge means
"answered", regardless of score); the exercise-concept subgraph mirrors the
Q-matrix. Each logical edge is split into two directed edges so that every
aggregation direction has its own adjacency: a per-edge head array and tail
array. A relation's two directions read one pair list: e2s and c2e take its
two columns as heads and tails, s2e and e2c the same two arrays swapped, so
s2e is student-major and e2c exercise-major. Within each head, tails ascend;
a direction and its reverse share one pair order. The edges into each head
and out of each tail are thus summed in one fixed order, without a sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import QMatrix, ResponseSet, distinct_ids

DIRECTIONS = ("e2s", "s2e", "c2e", "e2c")


@dataclass(frozen=True, eq=False)
class RelationGraph:
    """Edge lists of both subgraphs plus node counts (M students, N exercises, K concepts).

    Each pair list is an (n, 2) integer array that strictly increases by
    first, then second element, and names ids below the node counts, and
    every exercise has a concept edge; a graph is never built otherwise."""

    se_edges: np.ndarray  # (n_se, 2) distinct (student, exercise) pairs, lexsorted
    ec_edges: np.ndarray  # (n_ec, 2) distinct (exercise, concept) pairs, lexsorted
    n_students: int
    n_exercises: int
    n_concepts: int

    def __post_init__(self):
        _check_pairs(self.se_edges, "se_edges", (self.n_students, self.n_exercises))
        _check_pairs(self.ec_edges, "ec_edges", (self.n_exercises, self.n_concepts))
        covered = np.zeros(self.n_exercises, dtype=bool)
        covered[self.ec_edges[:, 0]] = True  # a response is scored over its exercise's concepts
        if not covered.all():
            raise ValueError(f"ec_edges leaves exercise {int(covered.argmin())} without a concept")


def _check_pairs(pairs: np.ndarray, name: str, counts: tuple[int, int]) -> None:
    """ValueError naming the array unless `pairs` is an (n, 2) integer array
    that strictly increases by first, then second element, with each
    column's ids in [0, count)."""
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"array {name} has shape {pairs.shape}, expected (n, 2)")
    if pairs.dtype.kind not in "iu":  # the split's intp cast would truncate floats
        raise ValueError(f"array {name} has dtype {pairs.dtype}, expected integers")
    first, second = pairs.astype(np.intp, copy=False).T  # the ids the split will hold
    step = np.diff(first)
    if ((step < 0) | ((step == 0) & (np.diff(second) <= 0))).any():
        raise ValueError(f"{name} must be distinct pairs sorted by first, then second element")
    for col, n, which in ((first, counts[0], "first"), (second, counts[1], "second")):
        outside = (col < 0) | (col >= n)
        if outside.any():
            bad = int(col[outside][0])
            raise ValueError(f"{name} names id {bad} in its {which} column, outside [0, {n})")


@dataclass(frozen=True, eq=False)
class Adjacency:
    """One aggregation direction as an edge list: edge i flows tails[i] -> heads[i].

    Within each head, tails ascend; a direction and its reverse share one
    pair order, so either is sorted by its heads or by its tails. That fixes
    the summation order per head and per tail. Heads run over 0..n_heads-1,
    and a head may have no edge.
    """

    heads: np.ndarray
    tails: np.ndarray
    n_heads: int

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def indegrees(self) -> np.ndarray:
        return np.bincount(self.heads, minlength=self.n_heads)

    @cached_property
    def head_order(self) -> np.ndarray:
        """The edges in (head, tail) order: edge head_order[i] is the i-th.
        One stable sort by head, made on first use and kept; view draws need
        it, scoring does not."""
        return np.argsort(self.heads, kind="stable")


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


def build_relation_graph(train: ResponseSet, q: QMatrix) -> RelationGraph:
    """Assemble both subgraphs from train responses and the Q-matrix.

    Scores do not matter here: an edge records that the student answered the
    exercise. The Q-matrix's pairs, distinct and sorted as `load_qmatrix`
    returns them, are the concept edges as they are.
    """
    if len(train) == 0:
        raise ValueError("train response set is empty")
    if q.n_exercises != train.n_exercises:
        raise ValueError(
            f"Q-matrix covers {q.n_exercises} exercises but responses use {train.n_exercises}"
        )
    # the distinct (student, exercise) pairs, sorted by student, then exercise
    n = train.n_exercises
    se = np.stack(np.divmod(distinct_ids(train.students * n + train.exercises), n), axis=1)
    ec = np.stack([q.exercises, q.concepts], axis=1)
    return RelationGraph(se, ec, train.n_students, train.n_exercises, q.n_concepts)


def directed_split(g: RelationGraph) -> DirectedSplit:
    """Split each logical edge into its two directed counterparts: e2s and c2e
    are the pair lists' columns as stored, each a contiguous intp array, s2e
    and e2c the same two arrays with heads and tails swapped."""
    s, e = (np.ascontiguousarray(col, dtype=np.intp) for col in g.se_edges.T)
    ex, c = (np.ascontiguousarray(col, dtype=np.intp) for col in g.ec_edges.T)
    return DirectedSplit(
        e2s=Adjacency(s, e, g.n_students),
        s2e=Adjacency(e, s, g.n_exercises),
        c2e=Adjacency(ex, c, g.n_exercises),
        e2c=Adjacency(c, ex, g.n_concepts),
    )
