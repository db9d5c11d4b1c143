"""The diagnosis network.

Embedding tables for students, exercises, and concepts feed an L-layer
attention GCN with residual connections. Per layer and per direction, an
edge's attention logit is a linear map of the neighbor's state alone,
softmax-normalized within the head's neighbor segment: the paper's GAT logit
`[head, neighbor] @ w` adds the head's own term, the same on all its edges,
which the softmax cancels exactly (no nonlinearity comes between them).
Each aggregate is one fused `diffcore.attention_aggregate` node that adds
the residual; an exercise's c2e aggregate takes its s2e aggregate as the
residual. A node with no surviving neighbors keeps its residual. The final
states map through sigmoid linear heads to per-concept mastery (students)
and difficulty (exercises); predicted accuracy of a (student, exercise)
pair averages sigmoid(predictor(mastery - difficulty)) over the exercise's
concepts, its c2e edges. Each head and the prediction are one tape node with
a hand-written backward.

Forward passes accept an optional View whose masks thin the interaction
directions only; concept edges always participate at full density. A View of
k stacked mask rows runs as one forward over a k-copy disjoint union: copy j
offsets its node indices by j*M, j*N and j*K and keeps the interaction edges
of mask row j and every concept edge.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .relgraph import DIRECTIONS, DirectedSplit, RelationGraph, directed_split
from .viewgen import View


def param_names(n_layers: int) -> list[str]:
    """Every trainable array's name, in the order the regularizer sums them."""
    attn = [f"attn{i}_{d}" for i in range(n_layers) for d in DIRECTIONS]  # each (d, 1)
    heads = ["w_student_diag", "b_student_diag", "w_exercise_diag", "b_exercise_diag"]
    return ["student_emb", "exercise_emb", "concept_emb", *attn, *heads, "w_predict", "b_predict"]


def param_shapes(
    n_students: int, n_exercises: int, n_concepts: int, dim: int, n_layers: int
) -> dict[str, tuple[int, ...]]:
    """Every trainable array's shape, by name in `param_names` order."""
    m, n, k, d = n_students, n_exercises, n_concepts, dim
    shapes = {"student_emb": (m, d), "exercise_emb": (n, d), "concept_emb": (k, d)}
    shapes.update(w_student_diag=(d, k), b_student_diag=(k,), w_exercise_diag=(d, k))
    shapes.update(b_exercise_diag=(k,), w_predict=(k, k), b_predict=(k,))
    return {name: shapes.get(name, (d, 1)) for name in param_names(n_layers)}


class ModelParams(dict):
    """Name -> trainable array in `param_names` order; sizes are read off the arrays."""

    @property
    def n_layers(self) -> int:
        return sum(name.startswith("attn") for name in self) // len(DIRECTIONS)

    @property
    def dim(self) -> int:
        return self["student_emb"].shape[1]

    def wrap(self) -> dict[str, dc.DiffNode]:
        """Fresh trainable leaves for one optimization step."""
        return {name: dc.param(arr) for name, arr in self.items()}


@dataclass
class AdamState:
    """Adam's moments, by parameter name, and the number of steps taken."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def fresh(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass(eq=False)
class NodeStates:
    """Per-layer embeddings (index 0 is the embedding layer output).

    `attention` keeps detached per-edge softmax weights for auditing,
    keyed by direction, one array per layer. A forward over a k-copy union
    (`copies` = k) stacks the copies' rows, copy 0 first.
    """

    students: list[dc.DiffNode]
    exercises: list[dc.DiffNode]
    concepts: list[dc.DiffNode]
    attention: dict[str, list[np.ndarray]] = field(default_factory=dict)
    copies: int = 1

    def copy_rows(self, j: int, students=None, exercises=None) -> "NodeStates":
        """Copy j's final `students` and `exercises` rows (per-copy indices,
        None for all), gathered into a one-layer NodeStates."""
        picked = []
        for final, idx in ((self.final_students, students), (self.final_exercises, exercises)):
            n = len(final.value) // self.copies
            idx = np.arange(n) if idx is None else np.asarray(idx, dtype=np.intp)
            picked.append([dc.gather_rows(final, idx + j * n)])
        return NodeStates(*picked, concepts=[])

    @property
    def final_students(self) -> dc.DiffNode:
        return self.students[-1]

    @property
    def final_exercises(self) -> dc.DiffNode:
        return self.exercises[-1]


@dataclass(eq=False)
class Diagnosis:
    """Sigmoid mastery (M x K) and difficulty (N x K) matrices."""

    h_student: dc.DiffNode
    h_exercise: dc.DiffNode


def init_params(
    n_students: int,
    n_exercises: int,
    n_concepts: int,
    dim: int | None = None,
    n_layers: int = 2,
    seed: int = 0,
) -> ModelParams:
    """Seeded fan-in uniform init; embedding dim defaults to the concept count."""
    if min(n_students, n_exercises, n_concepts) < 1 or n_layers < 1:
        raise ValueError("all counts and the layer count must be >= 1")
    d = n_concepts if dim is None else dim
    if d < 1:
        raise ValueError(f"dim must be >= 1, got {d}")
    shapes = param_shapes(n_students, n_exercises, n_concepts, d, n_layers)
    rng = np.random.default_rng(seed)
    # the draw order (attention, embeddings, weights) is not the name order;
    # it stays fixed so that a seed keeps giving the same arrays. Attention
    # keeps the neighbor half of the paper's (2d, 1) draw at fan-in 2d, so
    # every array equals the one the full [head, neighbor] weight gave.
    attn = [name for name in shapes if name.startswith("attn")]
    drawn = {name: dc.init_array(rng, (2 * d, 1), 2 * d)[d:] for name in attn}
    for name in ("student_emb", "exercise_emb", "concept_emb", "w_student_diag", "w_exercise_diag"):
        drawn[name] = dc.init_array(rng, shapes[name], d)
    drawn["w_predict"] = dc.init_array(rng, shapes["w_predict"], n_concepts)
    return ModelParams((name, drawn.get(name, np.zeros(shape))) for name, shape in shapes.items())


def gcn_forward(
    params: ModelParams,
    split: DirectedSplit,
    view: View | None = None,
    nodes: dict[str, dc.DiffNode] | None = None,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> NodeStates:
    """Run the L-layer aggregation, optionally under a sparse view.

    Each direction's edges are built once per call. A `view` of k stacked
    mask rows runs one k-copy disjoint union (module docstring); copy j's
    rows and attention equal row j's own forward, bitwise.

    Pass `nodes` (from ModelParams.wrap()) to share leaves across several
    forwards of one training step; omit it for standalone inference.

    `rows = (students, exercises)` names the final-layer rows the caller
    reads in each copy (repeats allowed); None means every row. With `rows`,
    the last layer aggregates only the edges into those students and
    exercises, so only those final rows are valid and no final concept row
    is; the last layer's `attention` covers only the kept edges. The valid
    rows, and the gradients of a loss that reads only them, are bit-identical
    to the full forward's. Earlier layers are always full.
    """
    if nodes is None:
        nodes = params.wrap()
    s = nodes["student_emb"]
    e = nodes["exercise_emb"]
    c = nodes["concept_emb"]
    copies = 1 if view is None else len(np.atleast_2d(view.kept_e2s))
    masks = {} if view is None else {"e2s": view.kept_e2s, "s2e": view.kept_s2e}
    n_tails = {"e2s": len(e.value), "s2e": len(s.value), "c2e": len(c.value), "e2c": len(e.value)}
    edges = {}  # (heads, tails) per direction
    for d in DIRECTIONS:
        adj = split.adjacency(d)
        heads, tails = adj.heads, adj.tails
        if copies > 1:  # copy j's node ids are offset by j copies
            heads = (heads + np.arange(copies)[:, None] * adj.n_heads).ravel()
            tails = (tails + np.arange(copies)[:, None] * n_tails[d]).ravel()
        if d in masks:
            heads, tails = heads[masks[d].ravel()], tails[masks[d].ravel()]
        edges[d] = heads, tails
    last_edges = edges
    if rows is not None:  # only the edges into the read rows, in every copy
        students, exercises = rows
        last_edges = {}
        for d, read in zip(DIRECTIONS, (students, exercises, exercises, ())):
            into_read = np.zeros(split.adjacency(d).n_heads, dtype=bool)
            into_read[np.asarray(read, dtype=np.intp)] = True
            heads, tails = edges[d]
            into_read = np.tile(into_read, copies)[heads]
            last_edges[d] = heads[into_read], tails[into_read]
    if copies > 1:
        s, e, c = (dc.tile_rows(x, copies) for x in (s, e, c))
    states = NodeStates(
        students=[s],
        exercises=[e],
        concepts=[c],
        attention={direction: [] for direction in DIRECTIONS},
        copies=copies,
    )

    for layer in range(params.n_layers):
        w = {d: nodes[f"attn{layer}_{d}"] for d in DIRECTIONS}
        ed = last_edges if layer == params.n_layers - 1 else edges
        s_next, a_e2s = dc.attention_aggregate(e, w["e2s"], *ed["e2s"], residual=s)
        e_stu, a_s2e = dc.attention_aggregate(s, w["s2e"], *ed["s2e"], residual=e)
        e_next, a_c2e = dc.attention_aggregate(c, w["c2e"], *ed["c2e"], residual=e_stu)
        c_next, a_e2c = dc.attention_aggregate(e, w["e2c"], *ed["e2c"], residual=c)

        for direction, a in zip(DIRECTIONS, (a_e2s, a_s2e, a_c2e, a_e2c)):
            states.attention[direction].append(a)
        s, e, c = s_next, e_next, c_next
        states.students.append(s)
        states.exercises.append(e)
        states.concepts.append(c)

    return states


def _sigmoid_head(x: dc.DiffNode, w: dc.DiffNode, b: dc.DiffNode) -> dc.DiffNode:
    """sigmoid(x @ w + b) as one node."""
    out = dc.sigmoid(x.value @ w.value + b.value)

    def backward(g):
        dz = g * out * (1.0 - out)
        return dz @ w.value.T, x.value.T @ dz, dz.sum(axis=0)

    return dc.DiffNode(out, (x, w, b), backward)


def diagnose(states: NodeStates, nodes: dict[str, dc.DiffNode]) -> Diagnosis:
    """Map final node states to (0,1) mastery and difficulty matrices, one node each."""
    h_s = _sigmoid_head(states.final_students, nodes["w_student_diag"], nodes["b_student_diag"])
    h_e = _sigmoid_head(
        states.final_exercises, nodes["w_exercise_diag"], nodes["b_exercise_diag"]
    )
    return Diagnosis(h_s, h_e)


def predict(
    diag: Diagnosis,
    nodes: dict[str, dc.DiffNode],
    split: DirectedSplit,
    students: np.ndarray,
    exercises: np.ndarray,
) -> dc.DiffNode:
    """Predicted accuracy in (0,1) for each (student, exercise) pair, as one
    node over the gathered mastery and difficulty rows and the predictor.

    sigmoid(predictor(mastery - difficulty)) averaged over the exercise's
    concepts, which are its c2e edges in `split`; exercises without one are
    rejected. The predictor's T x K logits are computed whole, but the
    sigmoid and its derivative only at each record's (record, concept)
    pairs, put into T x K zeros for the row sum and the products; no
    exercise x concept array is built.
    """
    students = np.asarray(students, dtype=np.intp)
    exercises = np.asarray(exercises, dtype=np.intp)
    c2e = split.c2e
    indegrees = c2e.indegrees()
    counts = indegrees[exercises]
    if (counts == 0).any():
        bad = int(exercises[counts == 0][0])
        raise ValueError(f"exercise {bad} has no concepts in the Q-matrix")
    # record i's pairs are its exercise's c2e edges, in concept order, and
    # the j-th of them is edge first[i] + j
    first = (np.cumsum(indegrees) - indegrees)[exercises]
    records = np.repeat(np.arange(len(exercises)), counts)
    edges = np.arange(len(records)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    pairs = records * split.e2c.n_heads + c2e.tails[edges]  # flat indices into T x K

    h_s = dc.gather_rows(diag.h_student, students)
    h_e = dc.gather_rows(diag.h_exercise, exercises)
    w, b = nodes["w_predict"], nodes["b_predict"]
    inv = 1.0 / counts
    z = (h_s.value - h_e.value) @ w.value
    z += b.value
    v = dc.sigmoid(z.take(pairs))
    z[...] = 0.0  # the logits' buffer becomes the T x K zeros that hold v at the pairs
    z.put(pairs, v)
    out = z.sum(axis=1) * inv

    def backward(g):
        dz = np.zeros((len(exercises), len(w.value)))
        dz.put(pairs, (g * inv)[records] * v * (1.0 - v))
        d_diff = dz @ w.value.T
        return d_diff, -d_diff, (h_s.value - h_e.value).T @ dz, dz.sum(axis=0)

    return dc.DiffNode(out, (h_s, h_e, w, b), backward)


@dataclass(eq=False)
class Checkpoint:
    """A trained model, the relation graph it was trained on, the key maps, and
    what resuming needs."""

    params: ModelParams
    config: dict
    graph: RelationGraph
    student_keys: tuple[str, ...]
    exercise_keys: tuple[str, ...]
    concept_keys: tuple[str, ...]
    epoch: int = 0
    opt: AdamState | None = None  # None when the checkpoint holds no optimizer state
    train_sha256: str | None = None  # fingerprint of the train records, for --resume


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Single-file npz: parameter arrays with shape headers, config, graph,
    key maps, train-record fingerprint, and the optimizer state if any."""
    meta = {
        "config": ckpt.config,
        "counts": [ckpt.graph.n_students, ckpt.graph.n_exercises, ckpt.graph.n_concepts],
        "n_layers": ckpt.params.n_layers,
        "dim": ckpt.params.dim,
        "epoch": ckpt.epoch,
        "step": 0 if ckpt.opt is None else ckpt.opt.step,
        "has_adam": ckpt.opt is not None,
        "student_keys": list(ckpt.student_keys),
        "exercise_keys": list(ckpt.exercise_keys),
        "concept_keys": list(ckpt.concept_keys),
        "train_sha256": ckpt.train_sha256,
    }
    arrays = {f"p__{k}": v for k, v in ckpt.params.items()}
    if ckpt.opt is not None:
        arrays.update({f"m__{k}": v for k, v in ckpt.opt.m.items()})
        arrays.update({f"v__{k}": v for k, v in ckpt.opt.v.items()})
    np.savez(
        path,
        meta=np.array(json.dumps(meta)),
        se_edges=ckpt.graph.se_edges,
        ec_edges=ckpt.graph.ec_edges,
        **arrays,
    )


def _named_arrays(data, prefix: str, shapes: dict, what: str) -> dict:
    """The `prefix<name>` arrays of `data`: exactly the names of `shapes`, with
    those shapes, except that an older (2d, 1) attention array is cut to its
    neighbor half, which is all of it that ever reached the output."""
    stored = {k[len(prefix) :] for k in data.files if k.startswith(prefix)}
    if stored != set(shapes):
        raise ValueError(
            f"missing {what} arrays {sorted(set(shapes) - stored)}, "
            f"unexpected {sorted(stored - set(shapes))}"
        )
    arrays = {}
    for name, shape in shapes.items():
        arr = data[prefix + name]
        if name.startswith("attn") and arr.shape == (2 * shape[0], 1):
            arr = arr[shape[0] :]
        if arr.shape != shape:
            raise ValueError(f"array {prefix}{name} has shape {arr.shape}, expected {shape}")
        arrays[name] = arr
    return arrays


def _open_checkpoint(path):
    """The open npz at `path`; ValueError naming the path if the file is not
    an npz that holds `meta`. Pickled data is never loaded."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # empty, cut short, or not npz/npy
        data = None
    if isinstance(data, np.lib.npyio.NpzFile):
        if "meta" in data.files:
            return data
        data.close()
    raise ValueError(f"{path}: not an scdkit checkpoint (an npz written by save_checkpoint)")


def load_checkpoint(path, optimizer: bool = True) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. With `optimizer=False`
    no Adam moment is read, stored or not, and `opt` is None: scoring needs
    only the parameters, graph and key maps. A damaged checkpoint (a missing
    or garbled member or meta key, a wrong-shaped array, or a pair list that
    `directed_split` refuses) raises a ValueError naming the file."""
    with _open_checkpoint(path) as data:
        try:
            meta = json.loads(str(data["meta"]))
            shapes = param_shapes(*meta["counts"], meta["dim"], meta["n_layers"])
            params = ModelParams(_named_arrays(data, "p__", shapes, "parameter"))
            opt = None
            if optimizer and meta["has_adam"]:
                opt = AdamState(
                    m=_named_arrays(data, "m__", shapes, "Adam first-moment"),
                    v=_named_arrays(data, "v__", shapes, "Adam second-moment"),
                    step=meta["step"],
                )
            graph = RelationGraph(data["se_edges"], data["ec_edges"], *meta["counts"])
            directed_split(graph)  # refuses out-of-order pair lists
            return Checkpoint(
                params=params,
                config=meta["config"],
                graph=graph,
                student_keys=tuple(meta["student_keys"]),
                exercise_keys=tuple(meta["exercise_keys"]),
                concept_keys=tuple(meta["concept_keys"]),
                epoch=meta["epoch"],
                opt=opt,
                train_sha256=meta.get("train_sha256"),  # absent before fingerprints
            )
        except (KeyError, TypeError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: damaged checkpoint ({type(err).__name__}: {err})") from None
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
