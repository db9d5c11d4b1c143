"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Covers exactly the operator set the diagnosis model and its losses need:
row tiling with a block-sum backward, the fused residual graph-attention
aggregate (`attention_aggregate`: per-edge logits, segment softmax, weighted
neighbor sum and the residual, or a pick of its rows, in one node with a
hand-written backward), and one squared L2 norm node over many arrays.
`sigmoid` and the row scatter-add `scatter_rows` are plain array functions.
The model heads and the prediction in `scdmodel` and the loss terms and
their weighted total in `objectives` are single `DiffNode`s with their own
backward rules.
Every leaf is a trainable `param`, and every node reachable from a
backward root receives a gradient: a backward rule returns one array per
parent, and `backward` refuses one whose shape is not its parent's.

A graph backpropagates once. Each rule is dropped once it has run, and with
it the value of its node: the walk runs in reverse topological order, so no
later rule reads that value. The arrays a closure holds and the interior
values are thus freed during the walk rather than after it; after
`backward` only the root and the leaves keep their values, and a second
`backward` on the same graph raises.

Scatter-adds (the aggregate's weighted sum and tail scatter, and
`scatter_rows`) run one feature column at a time: each column is one
`np.bincount` over the row indices, so no index-by-feature array is built and
each bucket is summed in row order, bit-identical to `np.add.at`. So the row
order sets the speed but not the sums: two orders that list each bucket's rows
alike sum bit for bit alike, but long runs of consecutive rows into one bucket
make each add wait for the one before it. The aggregate's backward takes no
per-edge dot product: the two sums the logits' gradient needs are row dot
products with the weighted sums, which it recomputes as its output less its
residual rows, and with the tail scatter it computes anyway. So the node keeps
no weighted sums between its forward and its backward. Such ops may return
transposed (Fortran-order) arrays.

A computation graph is confined to one thread.
"""

from __future__ import annotations

import numpy as np


class DiffNode:
    """One node of the computation graph.

    `value` is a float64 ndarray (0-d for scalars). On a leaf, `grad` is a
    same-shape, read-only array filled in by `backward` (it may share memory
    with other gradients); interior nodes do not keep theirs. Non-leaf nodes
    carry their parents and a backward rule returning one gradient per
    parent; `backward` sets the rule to None once it has run, and the value
    too, except on its root: after `backward` only the root and the leaves
    keep their values.
    """

    __slots__ = ("value", "grad", "parents", "backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_fn = backward_fn

    def __repr__(self):
        shape = "spent" if self.value is None else self.value.shape
        return f"DiffNode(shape={shape}, leaf={not self.parents})"

    def item(self) -> float:
        return float(self.value)

    def backward(self):
        """Backpropagate from this scalar node through the graph.

        Visits each reachable node exactly once, in reverse topological
        order, accumulating parent gradients additively. A first gradient is
        kept as received (rules may hand one array to several parents), so
        only sums allocated here are added into in place. A graph
        backpropagates once; each rule is dropped once it has run, together
        with the node's gradient and, below the root, its value: every
        consumer's rule has run by then. So only leaves keep `.grad`, and
        only the root and the leaves keep `.value`. A graph whose
        rules are already gone, a rule that does not return one gradient per
        parent, or a gradient whose shape is not its parent's, raises
        ValueError.
        """
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar root")
        order = _toposort(self)
        if any(n.parents and n.backward_fn is None for n in order):
            raise ValueError("backward() already ran on this graph; its rules are gone")
        self.grad = np.ones_like(self.value)
        owned: set[int] = set()
        for node in reversed(order):
            if node.backward_fn is None:
                continue
            gs = node.backward_fn(node.grad)
            node.grad = node.backward_fn = None
            if node is not self:
                node.value = None
            for parent, g in zip(node.parents, gs, strict=True):
                if np.shape(g) != parent.value.shape:
                    raise ValueError(
                        f"backward rule gave a gradient of shape {np.shape(g)} "
                        f"for a parent of shape {parent.value.shape}"
                    )
                if parent.grad is None:
                    parent.grad = g
                elif id(parent) in owned:
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    owned.add(id(parent))


def _toposort(root: DiffNode) -> list[DiffNode]:
    # Iterative DFS; recursion depth would scale with graph depth otherwise.
    order: list[DiffNode] = []
    seen: set[int] = set()
    stack: list[tuple[DiffNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def param(value) -> DiffNode:
    """Trainable leaf; grads accumulate here."""
    return DiffNode(np.array(value, dtype=np.float64))


def tile_rows(a: DiffNode, k: int) -> DiffNode:
    """The rows of a 2-d array stacked k times, `a[np.tile(arange(n), k)]`;
    the gradient is the sum of the k row blocks, equal to `scatter_rows` at
    that index up to the sign of zero."""
    n, d = a.value.shape
    return DiffNode(np.tile(a.value, (k, 1)), (a,), lambda g: (g.reshape(k, n, d).sum(axis=0),))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array; exp never overflows: 1/(1+e^-x) for
    x >= 0, e^x/(1+e^x) below. Works in place on two temporaries the size of x."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def scatter_rows(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """The n x d sum of the rows of g into rows idx (repeats allowed): one
    `np.bincount` per column, bit-identical to `np.add.at`. The result is a
    transposed (Fortran-order) array."""
    out = np.empty((g.shape[1], n))
    for out_col, col in zip(out, g.T):
        out_col[...] = np.bincount(idx, weights=col, minlength=n)
    return out.T


def attention_aggregate(
    tail_state: DiffNode, weight: DiffNode, heads, tails, residual: DiffNode, residual_rows=None
) -> tuple[DiffNode, np.ndarray]:
    """Residual plus attention-weighted sum of tail rows into head rows, as one node.

    Edge e carries `tail_state[tails[e]]` into head `heads[e]` with logit
    `tail_state[tails[e]] @ weight`, where `weight` is (d, 1). Logits are
    softmax-normalized within each head's edges, max-subtracted. Row h of the
    output is the residual row of head h plus the weighted sum `agg[h]` of its
    edges' tail rows. The residual rows are `residual` itself, or with
    `residual_rows` (distinct row ids) `residual[residual_rows]`: then head h
    adds residual row `residual_rows[h]`, and the residual's gradient is the
    output's at those rows and zero elsewhere. There are as many heads as
    residual rows. Returns the output node and the detached per-edge weights.

    The sums run one feature column at a time, so no edge-by-feature array is
    ever built: every per-edge temporary is one column long. Each column is
    one `np.bincount`, which adds a head's edges in edge order, so `agg` and
    the scatter `S = A^T g` of the tail gradient (A the weighted head-by-tail
    adjacency) are bit-identical to `np.add.at`.

    The backward forms no per-edge dot product `g[heads[e]] . t[tails[e]]`.
    The logits' gradient needs it only in two sums, and each is a row dot
    product:
    - per head h, the sum over its edges of `alpha_e * g[h] . t[tails[e]]`
      is `g[h] . agg[h]`;
    - per tail t, the sum over its edges of `alpha_e * g[heads[e]] . t[t]`
      is `t[t] . S[t]`.
    So the logit gradient gathered per tail is
    `rowdot(t, S) - bincount(tails, alpha * (g . agg)[heads])`, and a column
    of the backward is one gather, one multiply and one `np.bincount`. The
    node holds no `agg`: the rule recomputes it as its own output less the
    residual rows, both still alive when it runs (the walk is reverse
    topological), and takes each row dot on C-ordered rows, so its bits do
    not depend on the memory order of `g` or on how many heads there are.
    The node holds its value, the per-edge weights and the edge ids, and no
    copy of the tail states. Gradients agree with the per-edge form to
    rounding, not bitwise. The tail gradient is a transposed view (Fortran
    order).
    """
    heads = np.asarray(heads, dtype=np.intp)
    tails = np.asarray(tails, dtype=np.intp)
    t_val, w, r_val = tail_state.value, weight.value, residual.value
    picked = r_val if residual_rows is None else r_val[residual_rows]
    n_heads, n_tails = len(picked), len(t_val)
    logits = (t_val @ w)[tails, 0]
    seg_max = np.full(n_heads, -np.inf)
    np.maximum.at(seg_max, heads, logits)
    e = np.exp(logits - seg_max[heads])
    alpha = e / np.bincount(heads, weights=e, minlength=n_heads)[heads]
    agg = np.array(
        [
            np.bincount(heads, weights=alpha * col[tails], minlength=n_heads)
            for col in np.ascontiguousarray(t_val.T)
        ]
    )
    out = picked + agg.T

    def backward(g):
        picked = r_val if residual_rows is None else r_val[residual_rows]  # not kept
        agg = np.subtract(out, picked, order="C")
        agg *= g  # C-ordered, so each row sums alike whatever the order of g
        seg_dot = agg.sum(axis=1)
        del agg
        d_tail = np.array(
            [
                np.bincount(tails, weights=alpha * g_col[heads], minlength=n_tails)
                for g_col in np.ascontiguousarray(g.T)
            ],
            dtype=np.float64,  # a bincount over no edges is int64
        )
        d_lt = np.einsum("ct,tc->t", d_tail, t_val)
        d_lt -= np.bincount(tails, weights=alpha * seg_dot[heads], minlength=n_tails)
        d_tail += np.outer(w, d_lt)
        if residual_rows is None:
            d_res = g
        else:
            d_res = np.zeros_like(r_val)
            d_res[residual_rows] = g
        return d_tail.T, (t_val.T @ d_lt)[:, None], d_res

    return DiffNode(out, (tail_state, weight, residual), backward), alpha


def l2_norm_sq(*nodes: DiffNode) -> DiffNode:
    """Squared entries of all `nodes` summed as one node: per node, then left to right from 0.0."""
    return DiffNode(
        sum((np.sum(a.value**2) for a in nodes), 0.0),
        nodes,
        lambda g: tuple(2.0 * float(g) * a.value for a in nodes),
    )


def init_array(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
