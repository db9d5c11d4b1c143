import numpy as np
import pytest

from scdkit import diffcore as dc
from scdkit.corpus import QMatrix, ResponseSet
from scdkit.relgraph import build_relation_graph, directed_split

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


def seeded_sum(node, g) -> dc.DiffNode:
    """The scalar sum(g * node), as one node whose backward hands `node` the
    gradient g (broadcast to its shape)."""
    g = np.asarray(g, dtype=np.float64)
    return dc.DiffNode(
        (node.value * g).sum(),
        (node,),
        lambda s: (float(s) * np.broadcast_to(g, node.shape),),
        node.requires_grad,
    )


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
