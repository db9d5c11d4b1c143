"""Training objectives: supervised cross-entropy, contrastive alignment
between view pairs, and their weighted multi-task combination.

Each loss term is one tape node with a hand-written backward: `main_loss`,
`infonce`, the regularizer (`dc.l2_norm_sq` over every parameter) and their
weighted sum, `total_loss`.

The contrastive term pairs one node's representations under the two views
and puts only the other nodes' in the denominator, as the decoupled
contrastive loss does, so the per-node term can go negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import DiffNode
from .scdmodel import NodeStates

# above this many rows infonce's two n x n float64 arrays exceed 537 MB each
INFONCE_MAX_ROWS = 8192
EPS_GUARD = 1e-12


def main_loss(y: DiffNode, labels: np.ndarray) -> DiffNode:
    """Summed cross entropy between predicted accuracies and 0/1 scores, as one node.

    Predictions are clamped into [1e-12, 1 - 1e-12] before the logs; a
    clamped prediction gets a zero gradient.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if y.value.shape != labels.shape:
        raise ValueError(f"shape mismatch: predictions {y.value.shape}, labels {labels.shape}")
    y_c = np.clip(y.value, 1e-12, 1.0 - 1e-12)
    value = -(labels * np.log(y_c) + (1.0 - labels) * np.log(1.0 - y_c)).sum()

    def backward(g):
        d_y = g * (1.0 - labels) / (1.0 - y_c) - g * labels / y_c
        return (np.where(y_c == y.value, d_y, 0.0),)

    return DiffNode(value, (y,), backward)


def infonce(z: DiffNode, tau: float) -> DiffNode:
    """Mean contrastive loss between the two halves of `z`, whose row i and
    row n + i are node i under two views, as a two-copy union stacks them.

    Per node i: -log( exp(cos(z1_i, z2_i)/tau) / sum_j exp(cos(z1_i, z2_j)/tau) ),
    where j ranges over the other nodes only.
    One node normalizes the rows (one whose norm is below EPS_GUARD is divided
    by EPS_GUARD, so its cosines are 0), keeps the n x n exponentials (diagonal
    zeroed) and returns one gradient for all 2n rows.
    More than INFONCE_MAX_ROWS nodes are refused before anything n x n exists.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = z.value
    if x.ndim != 2 or len(x) % 2:
        raise ValueError(f"contrastive loss needs two stacked views, got shape {x.shape}")
    n = len(x) // 2
    if n < 2:
        raise ValueError("contrastive loss needs at least 2 nodes to form negatives")
    if n > INFONCE_MAX_ROWS:
        raise ValueError(f"contrastive loss over n = {n} rows exceeds {INFONCE_MAX_ROWS} rows")

    norms = np.sqrt((x**2).sum(axis=1))
    safe = np.maximum(norms, EPS_GUARD)
    u = x / safe[:, None]
    u1, u2 = u[:n], u[n:]
    inv_tau = 1.0 / tau
    e = np.exp((u1 @ u2.T) * inv_tau)
    np.fill_diagonal(e, 0.0)
    denom = e.sum(axis=1)
    value = (np.log(denom) - (u1 * u2).sum(axis=1) * inv_tau).mean()

    def backward(g):
        g_row = float(g) / n
        d_sims = e * (g_row / denom)[:, None]
        d_sims *= inv_tau
        g_pos = -g_row * inv_tau
        g_u = np.concatenate([d_sims @ u2 + g_pos * u2, (u1.T @ d_sims).T + g_pos * u1])
        dot = (g_u * x).sum(axis=1)
        live = (norms > EPS_GUARD).astype(np.float64)
        return (g_u / safe[:, None] - x * (live * dot / safe**3)[:, None],)

    return DiffNode(value, (z,), backward)


def ssl_loss(union: NodeStates, tau: float) -> tuple[DiffNode | None, DiffNode | None]:
    """Contrastive loss of a two-copy union's final student rows and of its
    final exercise rows, each copy's row i paired with the other's; None for
    a side whose copies hold fewer than 2 rows, which has no negatives."""
    if union.copies != 2:
        raise ValueError(f"ssl_loss contrasts the two copies of a view union, got {union.copies}")
    return tuple(
        infonce(z, tau) if len(z.value) >= 4 else None
        for z in (union.final_students, union.final_exercises)
    )


@dataclass(frozen=True)
class LossBreakdown:
    """One step's (or epoch's) loss components; total is their weighted sum."""

    main: float
    ssl_student: float
    ssl_exercise: float
    reg: float
    total: float
    lambda1: float
    lambda2: float
    tau: float

    CSV_HEADER = "epoch,main,ssl_s,ssl_e,reg,total"

    def __post_init__(self):
        for name in ("main", "ssl_student", "ssl_exercise", "reg", "total"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def weighted(cls, main, ssl_student, ssl_exercise, reg, lambda1, lambda2, tau):
        """The breakdown of these terms, with the total main + lambda1 * (ssl_s +
        ssl_e) + lambda2 * reg: the one place that total is formed."""
        total = main + (ssl_student + ssl_exercise) * lambda1 + reg * lambda2
        return cls(main, ssl_student, ssl_exercise, reg, total, lambda1, lambda2, tau)

    def csv_row(self, epoch: int) -> str:
        return (
            f"{epoch},{self.main!r},{self.ssl_student!r},{self.ssl_exercise!r},"
            f"{self.reg!r},{self.total!r}"
        )


def total_loss(
    main: DiffNode,
    ssl_student: DiffNode | None,
    ssl_exercise: DiffNode | None,
    param_nodes: dict[str, DiffNode],
    lambda1: float,
    lambda2: float,
    tau: float,
) -> tuple[DiffNode, LossBreakdown]:
    """main + lambda1 * (ssl_s + ssl_e) + lambda2 * ||all params||^2 as one node.

    Returns the differentiable total and a float breakdown. Either
    contrastive part may be None (a side without negatives, or
    supervised-only training); it then counts as 0.0 and gets no gradient.
    """
    reg = dc.l2_norm_sq(*param_nodes.values())
    ssl = [x for x in (ssl_student, ssl_exercise) if x is not None]
    parents, weights = (main, *ssl, reg), (1.0, *[lambda1] * len(ssl), lambda2)
    s, e = (0.0 if x is None else x.item() for x in (ssl_student, ssl_exercise))
    breakdown = LossBreakdown.weighted(main.item(), s, e, reg.item(), lambda1, lambda2, tau)
    if not np.isfinite(breakdown.total):
        raise FloatingPointError(f"non-finite loss: {breakdown}")
    total = DiffNode(breakdown.total, parents, lambda g: tuple(g * c for c in weights))
    return total, breakdown
