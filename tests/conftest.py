import json
import math
import struct
import zipfile

import numpy as np
import pytest

from scdkit import diffcore as dc
from scdkit.corpus import QMatrix, ResponseSet
from scdkit.relgraph import build_relation_graph, directed_split
from scdkit.scdmodel import NodeStates

# one pass/fail line per acceptance criterion at the end of the run
_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance_results.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_results:
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")


def brute_infonce(z1, z2, tau):
    """`objectives.infonce` of the views `z1` and `z2` as a double loop on
    plain floats: per node i, -log(exp(cos(z1_i, z2_i) / tau) over the sum
    of exp(cos(z1_i, z2_j) / tau) for j != i), averaged. An all-zero row has
    cosine 0 with every row."""

    def cos(u, v):
        norms = np.linalg.norm(u) * np.linalg.norm(v)
        return float(np.dot(u, v) / norms) if norms else 0.0

    n = len(z1)
    total = 0.0
    for i in range(n):
        pos = math.exp(cos(z1[i], z2[i]) / tau)
        denom = sum(math.exp(cos(z1[i], z2[j]) / tau) for j in range(n) if j != i)
        total += -math.log(pos / denom)
    return total / n


def seeded_sum(node, g) -> dc.DiffNode:
    """The scalar sum(g * node), as one node whose backward hands `node` the
    gradient g (broadcast to its shape)."""
    g = np.asarray(g, dtype=np.float64)
    return dc.DiffNode(
        (node.value * g).sum(),
        (node,),
        lambda s: (float(s) * np.broadcast_to(g, node.value.shape),),
    )


def gather_rows(a: dc.DiffNode, idx) -> dc.DiffNode:
    """The rows `a[idx]` of a 2-d node as one node (repeats allowed), whose
    backward scatter-adds the gradient back as `predict`'s does."""
    idx = np.asarray(idx, dtype=np.intp)
    return dc.DiffNode(a.value[idx], (a,), lambda g: (dc.scatter_rows(idx, g, len(a.value)),))


def full_then_rows(states: NodeStates, rows) -> NodeStates:
    """The final rows `rows` = (students, exercises) of every copy of a full
    forward's states, gathered into a one-layer NodeStates laid out as
    `gcn_forward(..., rows=rows)` returns its final states: the reference
    that the rows forward must match bit for bit."""
    picked = []
    for final, ids in zip((states.final_students, states.final_exercises), rows):
        per_copy = len(final.value) // states.copies
        offsets = np.arange(states.copies)[:, None] * per_copy
        picked.append([gather_rows(final, (np.asarray(ids) + offsets).ravel())])
    return NodeStates(*picked, concepts=[], copies=states.copies, rows=tuple(rows))


def stack_copies(*states: NodeStates) -> NodeStates:
    """The final student and exercise rows of separate forwards stacked, first
    forward first, into a one-layer NodeStates with one copy per forward, as
    `gcn_forward` lays out a union's copies; each forward's rows get their
    block of the gradient. Two sides built alike through it compare bit for
    bit without the union forward."""
    finals = []
    for side in ("final_students", "final_exercises"):
        parts = [getattr(st, side) for st in states]
        bounds = np.cumsum([len(p.value) for p in parts])[:-1]
        value = np.vstack([p.value for p in parts])
        finals.append([dc.DiffNode(value, parts, lambda g, b=bounds: tuple(np.split(g, b)))])
    return NodeStates(*finals, concepts=[], copies=len(states), rows=states[0].rows)


def grad_check(f, x: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients of `f` and central differences.

    `f` maps a dict of leaf DiffNodes (same keys as `x`) to a scalar DiffNode.
    Error per coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps out of the supported [1e-7, 1e-3] range")
    leaves = {k: dc.param(v) for k, v in x.items()}
    out = f(leaves)
    if not np.isfinite(out.value):
        raise ValueError("non-finite function value at x")
    out.backward()
    analytic = {k: np.array(leaves[k].grad, copy=True) for k in x}

    worst = 0.0
    for key, base in x.items():
        # perturb by index: reshape(-1) of a non-C-ordered array is a copy
        for i in np.ndindex(base.shape):
            orig = base[i]
            base[i] = orig + eps
            f_plus = float(f({k: dc.param(v) for k, v in x.items()}).value)
            base[i] = orig - eps
            f_minus = float(f({k: dc.param(v) for k, v in x.items()}).value)
            base[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError("non-finite function value during perturbation")
            a = analytic[key][i]
            worst = max(worst, abs(a - numeric) / max(1.0, abs(numeric)))
    return worst


def corrupt_member(path, member: str) -> None:
    """Flip the last data byte of one stored member of the npz at `path`, so
    that reading the member fails its CRC-32 check."""
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    start = info.header_offset + 30  # the local header's fixed part
    start += sum(struct.unpack("<HH", raw[info.header_offset + 26 : start]))  # name, extra
    raw[start + info.compress_size - 1] ^= 0xFF
    path.write_bytes(raw)


def rewrite_meta(src, dst, edit) -> None:
    """Copy the checkpoint `src` to `dst`, with `edit(meta)` applied to its
    decoded meta dict."""
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    edit(meta)
    np.savez(dst, **{**arrays, "meta": np.array(json.dumps(meta))})


def rewrite_entries(src, dst, key, value, index=...) -> None:
    """Copy the checkpoint `src` to `dst`, with `value` written into its array
    `key` at `index` (every entry by default)."""
    with np.load(src) as data:
        arrays = {k: data[k] for k in data.files}
    arrays[key][index] = value
    np.savez(dst, **arrays)


def small_responses(scores=None) -> ResponseSet:
    """4 students x 5 exercises, 10 records, every node touched."""
    students = np.array([0, 0, 0, 1, 1, 1, 2, 2, 3, 3], dtype=np.intp)
    exercises = np.array([0, 1, 4, 0, 1, 2, 2, 3, 3, 4], dtype=np.intp)
    if scores is None:
        scores = np.array([1, 0, 1, 1, 1, 0, 0, 1, 1, 0], dtype=np.int64)
    return ResponseSet(
        students,
        exercises,
        np.asarray(scores, dtype=np.int64),
        4,
        5,
        ("s0", "s1", "s2", "s3"),
        ("e0", "e1", "e2", "e3", "e4"),
    )


def small_qmatrix() -> QMatrix:
    """5 exercises over 3 concepts; e3 carries two concepts."""
    return QMatrix(
        np.array([0, 1, 2, 3, 3, 4], dtype=np.intp),
        np.array([0, 1, 2, 0, 1, 2], dtype=np.intp),
        5,
        3,
        ("c0", "c1", "c2"),
    )


@pytest.fixture
def small_world():
    train = small_responses()
    q = small_qmatrix()
    graph = build_relation_graph(train, q)
    return {"train": train, "q": q, "graph": graph, "split": directed_split(graph)}
