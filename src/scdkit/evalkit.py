"""Evaluation: overall ACC/RMSE, bottom-half-by-interaction metrics, grouped
reports, and per-student case studies.

Per-student metrics are computed on test records; what makes a student
"long-tailed" is how little the model saw of them, so the ranking key is the
TRAIN interaction count (ties broken by student id). acc50/rmse50 are
unweighted means of per-student values over the first floor(M'/2) ranked
students, where M' counts students with at least one test record.

The report is columnar: `student_table` sums records per student with
`bincount` into four columns, `tail_metrics` and `group_report` rank or bucket
them as arrays, and `evaluate` turns them into rows of plain Python numbers
once, for the report. No Python loop runs over students.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import ResponseSet, load_responses, write_csv
from .relgraph import DirectedSplit, directed_split
from .scdmodel import Checkpoint, Diagnosis, diagnose, gcn_forward, load_checkpoint, predict

PASS_THRESHOLD = 0.5  # a prediction at or above it counts as a correct answer
# group_report's buckets of train interaction counts: [0,5), [5,10), ..., [40,inf)
BUCKET_WIDTH = 5
N_BUCKETS = 9


def accuracy(preds, labels) -> float:
    preds, labels = _check_pair(preds, labels)
    return float(np.mean((preds >= PASS_THRESHOLD).astype(np.int64) == labels))


def rmse(preds, labels) -> float:
    preds, labels = _check_pair(preds, labels)
    return float(np.sqrt(np.mean((preds - labels) ** 2)))


def _check_pair(preds, labels) -> tuple[np.ndarray, np.ndarray]:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ValueError("preds and labels must be equal-length and nonempty")
    return preds, labels


def _csv_text(rows) -> str:
    """Rows as CSV text, written by `corpus.write_csv`; no final newline."""
    buf = io.StringIO()
    write_csv(buf, rows)
    return buf.getvalue().removesuffix("\n")


class StudentRow(NamedTuple):
    student: int
    n_train: int
    acc: float
    rmse: float


class StudentColumns(NamedTuple):
    """The per-student table as arrays, one entry per student, by ascending id."""

    student: np.ndarray
    n_train: np.ndarray
    acc: np.ndarray
    rmse: np.ndarray

    def rows(self) -> list[StudentRow]:
        """One StudentRow per student, every cell a plain Python number."""
        return list(map(StudentRow, *(c.tolist() for c in self)))


@dataclass(frozen=True)
class GroupRow:
    label: str
    n_students: int
    n_interactions: int
    acc: float  # nan when the bucket is empty
    rmse: float


def student_table(
    students: np.ndarray, preds: np.ndarray, labels: np.ndarray, train_counts: np.ndarray
) -> StudentColumns:
    """Per-student ACC/RMSE over test records, ascending by student id.

    `train_counts[i]` is student i's number of train interactions; students
    with no test records simply do not appear.
    """
    students = np.asarray(students, dtype=np.intp)
    preds, labels = _check_pair(preds, labels)
    if len(students) != len(preds):
        raise ValueError("students column length mismatch")
    counts = np.bincount(students)
    ids = np.flatnonzero(counts)
    counts = counts[ids]
    hits = np.bincount(students, weights=(preds >= PASS_THRESHOLD) == labels)[ids]
    sq_err = np.bincount(students, weights=(preds - labels) ** 2)[ids]
    return StudentColumns(
        ids, np.asarray(train_counts)[ids], hits / counts, np.sqrt(sq_err / counts)
    )


def tail_metrics(table: StudentColumns) -> tuple[float, float]:
    """Mean per-student ACC and RMSE over the least-observed half.

    Mean of per-student RMSE values, not RMSE over pooled records.
    """
    ids, counts, acc, rmse_ = table
    if len(ids) < 2:
        raise ValueError("need at least 2 students with test records")
    half = np.lexsort((ids, counts))[: len(ids) // 2]
    return float(np.mean(acc[half])), float(np.mean(rmse_[half]))


def group_report(table: StudentColumns) -> list[GroupRow]:
    """Bucket students by train interaction count: [0,w),[w,2w),...,[(n-1)w,inf)
    for w = BUCKET_WIDTH and n = N_BUCKETS."""
    _, counts, acc, rmse_ = table
    if not len(counts):
        raise ValueError("need a nonempty table")
    out = []
    idx = np.minimum(counts // BUCKET_WIDTH, N_BUCKETS - 1)
    for b in range(N_BUCKETS):
        lo = b * BUCKET_WIDTH
        label = f"{lo}+" if b == N_BUCKETS - 1 else f"{lo}-{lo + BUCKET_WIDTH}"
        members = idx == b  # in row order, so each mean sums as a row loop would
        n = int(np.count_nonzero(members))
        means = (float(np.mean(c[members])) if n else float("nan") for c in (acc, rmse_))
        out.append(GroupRow(label, n, int(counts[members].sum()), *means))
    return out


@dataclass(eq=False)
class EvalReport:
    acc: float
    rmse: float
    acc50: float
    rmse50: float
    per_group: list[GroupRow]
    per_student: list[StudentRow] = field(default_factory=list)
    student_keys: tuple[str, ...] = ()  # id of each student index, for per_student_csv

    def to_json(self) -> str:
        def _clean(x):
            return None if isinstance(x, float) and not np.isfinite(x) else x

        return json.dumps(
            {
                "acc": _clean(self.acc),
                "rmse": _clean(self.rmse),
                "acc50": _clean(self.acc50),
                "rmse50": _clean(self.rmse50),
                "per_group": [
                    {
                        "bucket": g.label,
                        "n_students": g.n_students,
                        "n_interactions": g.n_interactions,
                        "acc": _clean(g.acc),
                        "rmse": _clean(g.rmse),
                    }
                    for g in self.per_group
                ],
            },
            indent=1,
            allow_nan=False,
        )

    def per_student_csv(self) -> str:
        rows = [["student", "train_interactions", "acc", "rmse"]]
        rows += [
            [self.student_keys[r.student], r.n_train, repr(r.acc), repr(r.rmse)]
            for r in self.per_student
        ]
        return _csv_text(rows)

    def per_group_csv(self) -> str:
        rows = [["bucket", "n_students", "n_interactions", "acc", "rmse"]]
        for g in self.per_group:
            metrics = ("" if not np.isfinite(x) else repr(x) for x in (g.acc, g.rmse))
            rows.append([g.label, g.n_students, g.n_interactions, *metrics])
        return _csv_text(rows)


def infer(params, split: DirectedSplit) -> tuple[Diagnosis, dict]:
    """Forward on the original graph: the diagnosis plus the leaves `predict` reads."""
    nodes = params.wrap()
    return diagnose(gcn_forward(params, split, nodes=nodes), nodes), nodes


def evaluate(params, split: DirectedSplit, test_set: ResponseSet) -> EvalReport:
    """Forward on the train graph `split` and score every test record. A student's
    train interaction count is its e2s indegree: train records are distinct pairs."""
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    diag, nodes = infer(params, split)
    preds = predict(diag, nodes, split, test_set.students, test_set.exercises).value
    labels = test_set.scores
    table = student_table(test_set.students, preds, labels, split.e2s.indegrees())
    acc50, rmse50 = tail_metrics(table)
    return EvalReport(
        acc=accuracy(preds, labels),
        rmse=rmse(preds, labels),
        acc50=acc50,
        rmse50=rmse50,
        per_group=group_report(table),
        per_student=table.rows(),
        student_keys=test_set.student_keys,
    )


def align_responses(
    rs: ResponseSet, student_keys: tuple[str, ...], exercise_keys: tuple[str, ...]
) -> ResponseSet:
    """Re-index a loaded ResponseSet onto an existing key universe."""
    s_index = {k: i for i, k in enumerate(student_keys)}
    e_index = {k: i for i, k in enumerate(exercise_keys)}
    unknown_s = [k for k in rs.student_keys if k not in s_index]
    unknown_e = [k for k in rs.exercise_keys if k not in e_index]
    if unknown_s or unknown_e:
        raise ValueError(
            f"keys outside the checkpoint universe (students {unknown_s[:5]}, "
            f"exercises {unknown_e[:5]})"
        )
    s_map = np.array([s_index[k] for k in rs.student_keys], dtype=np.intp)
    e_map = np.array([e_index[k] for k in rs.exercise_keys], dtype=np.intp)
    return ResponseSet(
        s_map[rs.students],
        e_map[rs.exercises],
        rs.scores,
        len(student_keys),
        len(exercise_keys),
        tuple(student_keys),
        tuple(exercise_keys),
    )


def evaluate_checkpoint(checkpoint_path, test_path) -> EvalReport:
    """Rebuild the train graph stored in the checkpoint and score a test CSV."""
    ckpt = load_checkpoint(checkpoint_path, optimizer=False)
    split = directed_split(ckpt.graph)
    test_set = align_responses(
        load_responses(test_path), ckpt.student_keys, ckpt.exercise_keys
    )
    return evaluate(ckpt.params, split, test_set)


@dataclass(eq=False)
class CaseStudy:
    """Mastery and difficulty slices over the concepts the requested exercises touch."""

    student_ids: list[int]
    exercise_ids: list[int]
    student_labels: list[str]
    exercise_labels: list[str]
    concept_ids: list[int]
    concept_labels: list[str]
    mastery: np.ndarray  # (len(student_ids), len(concept_ids))
    difficulty: np.ndarray  # (len(exercise_ids), len(concept_ids))
    exercise_concepts: dict[int, tuple[int, ...]]
    scores: dict[tuple[int, int], int]

    def consistent(self, student: int, exercise: int) -> bool | None:
        """Does the observed score agree with mastery dominating difficulty on
        every concept of the exercise? None when the score is unknown."""
        if (student, exercise) not in self.scores:
            return None
        si = self.student_ids.index(student)
        ei = self.exercise_ids.index(exercise)
        cols = [self.concept_ids.index(c) for c in self.exercise_concepts[exercise]]
        dominates = bool(np.all(self.mastery[si, cols] > self.difficulty[ei, cols]))
        return dominates == (self.scores[(student, exercise)] == 1)

    def concept_csv(self) -> str:
        rows = [
            ["concept"]
            + [f"mastery:{s}" for s in self.student_labels]
            + [f"difficulty:{e}" for e in self.exercise_labels]
        ]
        for j, label in enumerate(self.concept_labels):
            cells = [label]
            cells += [repr(float(v)) for v in self.mastery[:, j]]
            cells += [repr(float(v)) for v in self.difficulty[:, j]]
            rows.append(cells)
        return _csv_text(rows)

    def outcome_csv(self) -> str:
        rows = [["student", "exercise", "score", "consistent"]]
        for (s, e), score in sorted(self.scores.items()):
            student = self.student_labels[self.student_ids.index(s)]
            exercise = self.exercise_labels[self.exercise_ids.index(e)]
            rows.append([student, exercise, score, self.consistent(s, e)])
        return _csv_text(rows)


def case_study(
    ckpt: Checkpoint,
    student_keys: list[str],
    exercise_keys: list[str],
    test_set: ResponseSet | None = None,
) -> CaseStudy:
    """Slice diagnosed mastery/difficulty for the requested ids.

    Raw string ids resolve through the checkpoint's key maps; unknown ids
    raise. Ground-truth scores come from `test_set` when given.
    """
    s_index = {k: i for i, k in enumerate(ckpt.student_keys)}
    e_index = {k: i for i, k in enumerate(ckpt.exercise_keys)}
    try:
        students = [s_index[k] for k in student_keys]
    except KeyError as err:
        raise ValueError(f"unknown student id {err.args[0]!r}") from None
    try:
        exercises = [e_index[k] for k in exercise_keys]
    except KeyError as err:
        raise ValueError(f"unknown exercise id {err.args[0]!r}") from None

    split = directed_split(ckpt.graph)
    per_exercise = {e: tuple(split.c2e.tails[split.c2e.heads == e].tolist()) for e in exercises}
    concept_ids = sorted({c for cs in per_exercise.values() for c in cs})

    diag, _ = infer(ckpt.params, split)
    h_s = diag.h_student.value
    h_e = diag.h_exercise.value

    scores: dict[tuple[int, int], int] = {}
    if test_set is not None:
        wanted_s, wanted_e = set(students), set(exercises)
        for s, e, t in zip(test_set.students, test_set.exercises, test_set.scores):
            if int(s) in wanted_s and int(e) in wanted_e:
                scores[(int(s), int(e))] = int(t)

    cols = np.array(concept_ids, dtype=np.intp)
    return CaseStudy(
        student_ids=students,
        exercise_ids=exercises,
        student_labels=list(student_keys),
        exercise_labels=list(exercise_keys),
        concept_ids=concept_ids,
        concept_labels=[ckpt.concept_keys[c] for c in concept_ids],
        mastery=h_s[np.ix_(students, cols)] if concept_ids else np.zeros((len(students), 0)),
        difficulty=h_e[np.ix_(exercises, cols)] if concept_ids else np.zeros((len(exercises), 0)),
        exercise_concepts=per_exercise,
        scores=scores,
    )
