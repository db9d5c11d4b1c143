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
a hand-written backward; the prediction reads its records' mastery and
difficulty rows itself.

Forward passes accept an optional View whose masks thin the interaction
directions only; concept edges always participate at full density. A View of
k stacked mask rows runs as one forward over a k-copy disjoint union: copy j
offsets its node indices by j*M, j*N and j*K and keeps the interaction edges
of mask row j and every concept edge.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .relgraph import DIRECTIONS, DirectedSplit, RelationGraph
from .viewgen import View


def param_shapes(
    n_students: int, n_exercises: int, n_concepts: int, dim: int, n_layers: int
) -> dict[str, tuple[int, ...]]:
    """Every trainable array's shape, by name, in the order the regularizer sums them."""
    m, n, k, d = n_students, n_exercises, n_concepts, dim
    return {
        "student_emb": (m, d), "exercise_emb": (n, d), "concept_emb": (k, d),
        **{f"attn{i}_{r}": (d, 1) for i in range(n_layers) for r in DIRECTIONS},
        "w_student_diag": (d, k), "b_student_diag": (k,),
        "w_exercise_diag": (d, k), "b_exercise_diag": (k,),
        "w_predict": (k, k), "b_predict": (k,),
    }


class ModelParams(dict):
    """Name -> trainable array in `param_shapes` order; sizes are read off the arrays."""

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

    With `rows` = (students, exercises), sorted distinct ids, the final
    student and exercise states hold only those rows of each copy: copy j's
    i-th row is row `j * len(ids) + i`. `concepts` then has no final layer.
    """

    students: list[dc.DiffNode]
    exercises: list[dc.DiffNode]
    concepts: list[dc.DiffNode]
    attention: dict[str, list[np.ndarray]] = field(default_factory=dict)
    copies: int = 1
    rows: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def final_students(self) -> dc.DiffNode:
        return self.students[-1]

    @property
    def final_exercises(self) -> dc.DiffNode:
        return self.exercises[-1]


@dataclass(eq=False)
class Diagnosis:
    """Sigmoid mastery (M x K) and difficulty (N x K) matrices; with `rows` =
    (students, exercises), as in `NodeStates`, only those students' and
    exercises' rows, in id order."""

    h_student: dc.DiffNode
    h_exercise: dc.DiffNode
    rows: tuple[np.ndarray, np.ndarray] | None = None


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


def _check_rows(rows, split: DirectedSplit) -> tuple[np.ndarray, ...]:
    """`rows` as two intp arrays; ValueError unless each holds distinct
    student or exercise ids in range, sorted, as `corpus.distinct_ids`
    returns them."""
    checked = []
    counts = split.e2s.n_heads, split.s2e.n_heads
    for ids, n, what in zip(rows, counts, ("students", "exercises")):
        ids = np.asarray(ids)
        if ids.ndim != 1 or ids.dtype.kind not in "iu" or (
            len(ids) and (ids[0] < 0 or ids[-1] >= n or (ids[1:] <= ids[:-1]).any())
        ):
            raise ValueError(f"rows: {what} must be distinct integer ids in [0, {n}), ascending")
        checked.append(ids.astype(np.intp, copy=False))
    return tuple(checked)


def _read_heads(ids: np.ndarray, n_heads: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """The union ids of the read heads `ids` in every copy, and per union head
    its compact number (copy j's i-th read head is j * len(ids) + i) or -1."""
    union_ids = (ids + np.arange(copies)[:, None] * n_heads).ravel()
    compact = np.full(copies * n_heads, -1, dtype=np.intp)
    compact[union_ids] = np.arange(len(union_ids))
    return union_ids, compact


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

    `rows = (students, exercises)`, sorted distinct ids as
    `corpus.distinct_ids` returns them (ValueError otherwise), names the
    final rows the caller reads in each copy; None means every row. With
    `rows`, the last layer is computed for those rows only: the final states
    hold `copies * len(ids)` rows in copy-then-id order (`NodeStates`), the
    last layer aggregates only the edges into them and its `attention`
    covers only those edges, and no final concept state is made (no loss
    reads one). Those rows, and the gradients of a loss that reads them, are
    bit-identical to the full forward's at the same rows. Earlier layers are
    always full.
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
    picks = {}  # the last layer's residual rows, per direction
    last_edges = edges
    if rows is not None:  # only the edges into the read rows, renumbered compactly
        rows = _check_rows(rows, split)
        picks["e2s"], into_s = _read_heads(rows[0], split.e2s.n_heads, copies)
        picks["s2e"], into_e = _read_heads(rows[1], split.s2e.n_heads, copies)
        last_edges = {}
        for d, compact in (("e2s", into_s), ("s2e", into_e), ("c2e", into_e)):
            heads, tails = edges[d]
            heads = compact[heads]
            into = heads >= 0
            last_edges[d] = heads[into], tails[into]
    if copies > 1:
        s, e, c = (dc.tile_rows(x, copies) for x in (s, e, c))
    states = NodeStates(
        students=[s],
        exercises=[e],
        concepts=[c],
        attention={direction: [] for direction in DIRECTIONS},
        copies=copies,
        rows=rows,
    )

    for layer in range(params.n_layers):
        w = {d: nodes[f"attn{layer}_{d}"] for d in DIRECTIONS}
        final = rows is not None and layer == params.n_layers - 1
        ed, pick = (last_edges, picks) if final else (edges, {})
        s_next, a_e2s = dc.attention_aggregate(e, w["e2s"], *ed["e2s"], s, pick.get("e2s"))
        e_stu, a_s2e = dc.attention_aggregate(s, w["s2e"], *ed["s2e"], e, pick.get("s2e"))
        e_next, a_c2e = dc.attention_aggregate(c, w["c2e"], *ed["c2e"], residual=e_stu)
        if final:
            c_next, a_e2c = None, np.zeros(0)
        else:
            c_next, a_e2c = dc.attention_aggregate(e, w["e2c"], *ed["e2c"], residual=c)

        for direction, a in zip(DIRECTIONS, (a_e2s, a_s2e, a_c2e, a_e2c)):
            states.attention[direction].append(a)
        s, e, c = s_next, e_next, c_next
        states.students.append(s)
        states.exercises.append(e)
        if c is not None:
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
    """Map final node states to (0,1) mastery and difficulty matrices, one
    node each, over the rows the states hold (`rows`)."""
    h_s = _sigmoid_head(states.final_students, nodes["w_student_diag"], nodes["b_student_diag"])
    h_e = _sigmoid_head(
        states.final_exercises, nodes["w_exercise_diag"], nodes["b_exercise_diag"]
    )
    return Diagnosis(h_s, h_e, states.rows)


def _positions(read: np.ndarray, ids: np.ndarray, what: str) -> np.ndarray:
    """The position of each id in the sorted distinct ids `read`; ValueError
    naming the first id not among them."""
    pos = np.searchsorted(read, ids)
    if len(ids) and (len(read) == 0 or not np.array_equal(read.take(pos, mode="clip"), ids)):
        bad = ids[~np.isin(ids, read)][0]
        raise ValueError(f"{what} {int(bad)} is not among the diagnosis rows")
    return pos


def predict(
    diag: Diagnosis,
    nodes: dict[str, dc.DiffNode],
    split: DirectedSplit,
    students: np.ndarray,
    exercises: np.ndarray,
) -> dc.DiffNode:
    """Predicted accuracy in (0,1) for each (student, exercise) pair, as one
    node over the mastery and difficulty nodes and the predictor. The node
    reads each record's mastery and difficulty rows itself: a diagnosis with
    `rows` at the ids' positions in them (an id outside them is rejected),
    any other at the ids. It keeps their T x K difference for its backward,
    which scatter-adds the difference's gradient into the rows it read.

    sigmoid(predictor(mastery - difficulty)) averaged over the exercise's
    concepts, which are its c2e edges in `split`. The predictor's T x K
    logits are computed whole, but the sigmoid and its derivative only at
    each record's (record, concept) pairs, put into T x K zeros for the row
    sum and the products; no exercise x concept array is built.
    """
    students = np.asarray(students, dtype=np.intp)
    exercises = np.asarray(exercises, dtype=np.intp)
    c2e = split.c2e
    indegrees = c2e.indegrees()
    counts = indegrees[exercises]
    # record i's pairs are its exercise's c2e edges, in concept order, and
    # the j-th of them is edge first[i] + j
    first = (np.cumsum(indegrees) - indegrees)[exercises]
    records = np.repeat(np.arange(len(exercises)), counts)
    edges = np.arange(len(records)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    pairs = records * split.e2c.n_heads + c2e.tails[edges]  # flat indices into T x K

    s_rows, e_rows = students, exercises
    if diag.rows is not None:
        s_rows = _positions(diag.rows[0], students, "student")
        e_rows = _positions(diag.rows[1], exercises, "exercise")
    h_s, h_e = diag.h_student, diag.h_exercise
    w, b = nodes["w_predict"], nodes["b_predict"]
    inv = 1.0 / counts
    diff = h_s.value[s_rows] - h_e.value[e_rows]
    z = diff @ w.value
    z += b.value
    v = dc.sigmoid(z.take(pairs))
    z[...] = 0.0  # the logits' buffer becomes the T x K zeros that hold v at the pairs
    z.put(pairs, v)
    out = z.sum(axis=1) * inv

    def backward(g):
        dz = np.zeros((len(exercises), len(w.value)))
        dz.put(pairs, (g * inv)[records] * v * (1.0 - v))
        d_diff = dz @ w.value.T
        d_h_s = dc.scatter_rows(s_rows, d_diff, len(h_s.value))
        d_h_e = dc.scatter_rows(e_rows, np.negative(d_diff, out=d_diff), len(h_e.value))
        return d_h_s, d_h_e, diff.T @ dz, dz.sum(axis=0)

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
    key maps, train-record fingerprint, and the optimizer state if any.

    The file is written under a temporary name in `path`'s directory and then
    renamed onto `path` (no `.npz` is appended), so a write that fails removes
    its temporary file and leaves any earlier file at `path` as it was."""
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
    meta = np.array(json.dumps(meta, allow_nan=False))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh, meta=meta, se_edges=ckpt.graph.se_edges, ec_edges=ckpt.graph.ec_edges, **arrays
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _named_arrays(data, prefix: str, shapes: dict, what: str) -> dict:
    """The `prefix<name>` arrays of `data`: exactly the names of `shapes`, with
    those shapes and finite float64 entries, except that an older (2d, 1)
    attention array is cut to its neighbor half, which is all of it that ever
    reached the output."""
    stored = {k[len(prefix) :] for k in data.files if k.startswith(prefix)}
    if stored != set(shapes):
        raise ValueError(
            f"missing {what} arrays {sorted(set(shapes) - stored)}, "
            f"unexpected {sorted(stored - set(shapes))}"
        )
    arrays = {}
    for name, shape in shapes.items():
        arr = data[prefix + name]
        if arr.dtype != np.float64:
            raise ValueError(f"array {prefix}{name} has dtype {arr.dtype}, expected float64")
        if name.startswith("attn") and arr.shape == (2 * shape[0], 1):
            arr = arr[shape[0] :]
        if arr.shape != shape:
            raise ValueError(f"array {prefix}{name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"array {prefix}{name} holds a non-finite value")
        arrays[name] = arr
    return arrays


def _open_checkpoint(path):
    """The open npz at `path`, which closes the file with it; ValueError
    naming the path, with the file closed, if it is not an npz that holds
    `meta`. Pickled data is never loaded."""
    fh = open(path, "rb")
    try:
        data = np.lib.npyio.NpzFile(fh, own_fid=True, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # empty, cut short, or not a zip
        fh.close()
    else:
        if "meta" in data.files:
            return data
        data.close()
    raise ValueError(f"{path}: not an scdkit checkpoint (an npz written by save_checkpoint)")


def _check_meta(meta: dict) -> None:
    """ValueError naming the first meta field a Checkpoint takes that lacks its
    type. A config's keys are not checked, so one naming retired keys loads."""
    sha = meta.get("train_sha256")  # absent before fingerprints
    hex64 = isinstance(sha, str) and re.fullmatch("[0-9a-f]{64}", sha)
    counts = meta["counts"]
    ints = isinstance(counts, list) and [type(c) for c in counts] == [int, int, int]
    fields = [
        ("config", isinstance(meta["config"], dict), "a JSON object"),
        ("counts", ints and min(counts) > 0, "three positive integers"),
        ("has_adam", isinstance(meta["has_adam"], bool), "true or false"),
        ("train_sha256", sha is None or hex64, "null or 64 hex digits"),
    ]
    for name, low in (("dim", 1), ("n_layers", 1), ("epoch", 0), ("step", 0)):
        value = meta[name]
        what = "a positive integer" if low else "a non-negative integer"
        fields.append((name, type(value) is int and value >= low, what))
    for name, ok, what in fields:
        if not ok:
            raise ValueError(f"meta {name} must be {what}")
    for name, count in zip(("student_keys", "exercise_keys", "concept_keys"), counts):
        keys = meta[name]
        distinct = isinstance(keys, list) and len({k for k in keys if type(k) is str}) == len(keys)
        if not (distinct and len(keys) == count):
            raise ValueError(f"meta {name} must be {count} distinct strings")


def load_checkpoint(path, optimizer: bool = True) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. With `optimizer=False`
    no Adam moment is read, stored or not, and `opt` is None: scoring needs
    only the parameters, graph and key maps. A damaged checkpoint (a missing
    or garbled member or meta key, a meta field `_check_meta` refuses, a read
    array of the wrong shape, of a dtype other than float64 or with a NaN or
    infinite entry, or a pair list that `RelationGraph` refuses) raises a
    ValueError naming the file."""
    with _open_checkpoint(path) as data:
        try:
            meta = json.loads(str(data["meta"]))
            _check_meta(meta)
            shapes = param_shapes(*meta["counts"], meta["dim"], meta["n_layers"])
            params = ModelParams(_named_arrays(data, "p__", shapes, "parameter"))
            opt = None
            if optimizer and meta["has_adam"]:
                opt = AdamState(
                    m=_named_arrays(data, "m__", shapes, "Adam first-moment"),
                    v=_named_arrays(data, "v__", shapes, "Adam second-moment"),
                    step=meta["step"],
                )
            return Checkpoint(
                params=params,
                config=meta["config"],
                graph=RelationGraph(data["se_edges"], data["ec_edges"], *meta["counts"]),
                student_keys=tuple(meta["student_keys"]),
                exercise_keys=tuple(meta["exercise_keys"]),
                concept_keys=tuple(meta["concept_keys"]),
                epoch=meta["epoch"],
                opt=opt,
                train_sha256=meta.get("train_sha256"),
            )
        except (KeyError, TypeError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: damaged checkpoint ({type(err).__name__}: {err})") from None
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
