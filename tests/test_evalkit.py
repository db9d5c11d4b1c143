import csv
import dataclasses
import io
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdkit import trainkit
from scdkit.corpus import load_responses
from scdkit.evalkit import (
    CaseStudy,
    EvalReport,
    StudentColumns,
    StudentRow,
    accuracy,
    align_responses,
    case_study,
    evaluate_checkpoint,
    group_report,
    infer,
    rmse,
    student_table,
    tail_metrics,
)
from scdkit.scdmodel import Checkpoint, init_params, load_checkpoint, predict, save_checkpoint
from scdkit.synth import make_synthetic, write_synthetic
from conftest import small_qmatrix, small_responses
from scdkit.relgraph import build_relation_graph, directed_split


class TestPointMetrics:
    def test_accuracy_hand_cases(self):
        assert accuracy([0.8, 0.3, 0.6], [1, 0, 1]) == 1.0
        assert accuracy([0.8, 0.6, 0.4], [1, 0, 1]) == pytest.approx(1 / 3, rel=1e-12)
        assert accuracy([1.0, 0.0], [1, 0]) == 1.0

    def test_threshold_is_inclusive(self):
        assert accuracy([0.5], [1]) == 1.0
        assert accuracy([0.5], [0]) == 0.0

    def test_rmse_hand_cases(self):
        assert rmse([1.0, 0.0], [1, 0]) == 0.0
        assert rmse([0.8, 0.3, 0.6], [1, 0, 1]) == pytest.approx(
            math.sqrt(0.29 / 3), rel=1e-12
        )
        assert rmse([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            rmse([0.5], [1, 0])

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.random(40)
        labels = rng.integers(0, 2, 40)
        perm = rng.permutation(40)
        assert accuracy(preds, labels) == accuracy(preds[perm], labels[perm])
        assert rmse(preds, labels) == pytest.approx(rmse(preds[perm], labels[perm]), rel=1e-12)


def columns(student, n_train, acc, rmse):
    return StudentColumns(*map(np.array, (student, n_train, acc, rmse)))


def four_student_columns():
    return columns(
        student=[0, 1, 2, 3], n_train=[2, 3, 10, 20], acc=[0.5, 1.0, 0.9, 0.8],
        rmse=[0.2, 0.4, 0.1, 0.3],
    )


class TestTailMetrics:
    def test_bottom_half_oracle(self):
        acc50, rmse50 = tail_metrics(four_student_columns())
        assert acc50 == pytest.approx(0.75, abs=1e-15)
        assert rmse50 == pytest.approx(0.3, abs=1e-15)  # mean of RMSEs, not pooled

    def test_identical_metrics_pass_through(self):
        table = columns(range(6), range(1, 7), [0.7] * 6, [0.25] * 6)
        assert tail_metrics(table) == (pytest.approx(0.7), pytest.approx(0.25))

    def test_tie_break_by_student_id(self):
        table = columns(
            student=[5, 1, 3, 2], n_train=[4, 4, 4, 9], acc=[0.0, 1.0, 0.5, 0.2],
            rmse=[1.0, 0.0, 0.5, 0.2],
        )
        acc50, _ = tail_metrics(table)  # ids 1 and 3 lead the tie group
        assert acc50 == pytest.approx(0.75)

    def test_count_rescaling_invariance(self):
        table = four_student_columns()
        scaled = table._replace(n_train=table.n_train * 7)
        assert tail_metrics(table) == tail_metrics(scaled)

    def test_single_student_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            tail_metrics(StudentColumns(*(c[:1] for c in four_student_columns())))


class TestGroupReport:
    def test_hand_bucketing(self):
        table = columns([0, 1, 2], [3, 7, 100], [1.0, 0.5, 0.8], [0.1, 0.2, 0.3])
        groups = group_report(table)
        assert len(groups) == 9
        assert groups[0].label == "0-5" and groups[0].n_students == 1
        assert groups[1].label == "5-10" and groups[1].n_students == 1
        assert groups[8].label == "40+" and groups[8].n_students == 1
        assert groups[8].n_interactions == 100
        assert sum(g.n_students for g in groups) == 3
        assert math.isnan(groups[2].acc)

    def test_everyone_in_the_last_bucket(self):
        table = four_student_columns()
        groups = group_report(table._replace(n_train=table.n_train + 40))
        assert [g.n_students for g in groups] == [0] * 8 + [4]
        assert groups[8].label == "40+" and groups[8].n_interactions == 195
        assert groups[8].acc == pytest.approx(np.mean([0.5, 1.0, 0.9, 0.8]))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            group_report(columns([], [], [], []))


class TestStudentTable:
    def test_groups_and_metrics(self):
        students = np.array([1, 0, 1, 1])
        preds = np.array([0.9, 0.4, 0.2, 0.6])
        labels = np.array([1, 0, 0, 0])
        counts = np.array([5, 2])
        rows = student_table(students, preds, labels, counts).rows()
        assert [r.student for r in rows] == [0, 1]
        assert rows[0].n_train == 5 and rows[1].n_train == 2
        assert rows[0].acc == 1.0
        assert rows[1].acc == pytest.approx(2 / 3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_per_student_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_students = int(rng.integers(1, 30))
        n_records = int(rng.integers(1, 200))
        students = rng.integers(0, n_students, size=n_records)
        preds = rng.random(n_records)
        preds[rng.random(n_records) < 0.1] = 0.5  # the inclusive threshold
        labels = rng.integers(0, 2, size=n_records)
        counts = rng.integers(0, 50, size=n_students)
        rows = student_table(students, preds, labels, counts).rows()
        # reference: the per-student mask loop the table is computed without
        expected = []
        for s in np.unique(students):
            sel = students == s
            expected.append((int(s), int(counts[s]), accuracy(preds[sel], labels[sel]),
                             rmse(preds[sel], labels[sel])))
        assert [(r.student, r.n_train, r.acc) for r in rows] == [e[:3] for e in expected]
        npt.assert_allclose([r.rmse for r in rows], [e[3] for e in expected], rtol=0, atol=1e-12)

    def test_report_emitters_parse(self):
        table = four_student_columns()
        acc50, rmse50 = tail_metrics(table)
        report = EvalReport(
            acc=0.8, rmse=0.3, acc50=acc50, rmse50=rmse50,
            per_group=group_report(table), per_student=table.rows(),
            student_keys=("zed", "amy", "x,y", 'q"t'),
        )
        blob = json.loads(report.to_json())
        assert blob["acc50"] == 0.75
        assert blob["per_group"][1]["acc"] is None  # empty bucket -> null
        lines = report.per_student_csv().splitlines()
        assert lines[0] == "student,train_interactions,acc,rmse"
        assert lines[1] == "zed,2,0.5,0.2"
        parsed = list(csv.reader(lines))
        assert [row[0] for row in parsed[1:]] == ["zed", "amy", "x,y", 'q"t']
        assert all(len(row) == 4 for row in parsed)
        assert report.per_group_csv().splitlines()[2].endswith(",0,,")

    def test_non_finite_top_level_metrics_are_null(self):
        table = four_student_columns()
        report = EvalReport(
            acc=0.5, rmse=float("nan"), acc50=float("inf"), rmse50=float("-inf"),
            per_group=group_report(table),
        )
        text = report.to_json()
        blob = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
        assert (blob["acc"], blob["rmse"], blob["acc50"], blob["rmse50"]) == (0.5, None, None, None)


# The row-by-row report the columnar one replaced, kept as its reference.
def loop_student_table(students, preds, labels, train_counts):
    students = np.asarray(students, dtype=np.intp)
    preds = np.asarray(preds, dtype=np.float64)
    ids, inverse, counts = np.unique(students, return_inverse=True, return_counts=True)
    hits = np.bincount(inverse, weights=(preds >= 0.5) == labels, minlength=len(ids))
    sq_err = np.bincount(inverse, weights=(preds - labels) ** 2, minlength=len(ids))
    return [
        (int(s), int(train_counts[s]), float(a), float(r))
        for s, a, r in zip(ids, hits / counts, np.sqrt(sq_err / counts))
    ]


def loop_tail_metrics(rows):
    ids = np.array([r[0] for r in rows])
    counts = np.array([r[1] for r in rows])
    half = np.lexsort((ids, counts))[: len(rows) // 2]
    return float(np.mean([rows[i][2] for i in half])), float(np.mean([rows[i][3] for i in half]))


def loop_group_report(rows, bucket_width=5, n_buckets=9):  # the fixed geometry
    out = []
    idx = np.minimum(np.array([r[1] for r in rows]) // bucket_width, n_buckets - 1)
    for b in range(n_buckets):
        lo = b * bucket_width
        label = f"{lo}+" if b == n_buckets - 1 else f"{lo}-{lo + bucket_width}"
        members = [r for r, i in zip(rows, idx) if i == b]
        if members:
            out.append((
                label, len(members), int(sum(r[1] for r in members)),
                float(np.mean([r[2] for r in members])), float(np.mean([r[3] for r in members])),
            ))
        else:
            out.append((label, 0, 0, float("nan"), float("nan")))
    return out


def same_cells(got, want):
    """Equal with ==, NaN matching NaN, and of the same Python type."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w), (g, w)
        assert g == w or (g != g and w != w), (g, w)


# train-count draws: tied counts, empty buckets, one bucket, everyone in 40+
COUNT_SHAPES = {
    "spread": lambda rng, n: rng.integers(0, 60, size=n),
    "tied": lambda rng, n: rng.choice([3, 3, 12], size=n),
    "gapped": lambda rng, n: rng.choice([0, 27, 28], size=n),
    "one bucket": lambda rng, n: rng.integers(5, 10, size=n),
    "all 40+": lambda rng, n: rng.integers(40, 500, size=n),
}


class TestColumnarReport:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(sorted(COUNT_SHAPES)))
    def test_equals_the_row_loop_bit_for_bit(self, seed, shape):
        rng = np.random.default_rng(seed)
        n_students = int(rng.integers(1, 120))
        n_records = int(rng.integers(1, 600))
        students = rng.integers(0, n_students, size=n_records)
        preds = rng.random(n_records)
        preds[rng.random(n_records) < 0.1] = 0.5  # the inclusive threshold
        labels = rng.integers(0, 2, size=n_records)
        counts = COUNT_SHAPES[shape](rng, n_students)

        table = student_table(students, preds, labels, counts)
        rows = table.rows()
        want = loop_student_table(students, preds, labels, counts)
        assert len(rows) == len(want)
        for row, ref in zip(rows, want):
            same_cells(row, ref)
        for g, ref in zip(group_report(table), loop_group_report(want), strict=True):
            same_cells(dataclasses.astuple(g), ref)
        if len(rows) >= 2:
            same_cells(tail_metrics(table), loop_tail_metrics(want))

    def test_cells_are_plain_python_numbers(self):
        rng = np.random.default_rng(5)
        students = rng.integers(0, 40, size=300)
        preds = rng.random(300)
        labels = rng.integers(0, 2, size=300)
        counts = rng.integers(0, 60, size=40).astype(np.int32)
        table = student_table(students, preds, labels, counts)
        rows = table.rows()
        for row in rows:
            assert isinstance(row, StudentRow)
            assert [type(v) for v in row] == [int, int, float, float]
        keys = ("a\rb", "c,d", *(f"s{i}" for i in range(2, 40)))  # a lone CR must be quoted
        report = EvalReport(
            acc=0.5, rmse=0.5, acc50=0.5, rmse50=0.5, per_group=group_report(table),
            per_student=rows, student_keys=keys,
        )
        lines = list(csv.reader(io.StringIO(report.per_student_csv(), newline="")))
        assert len(lines) == len(rows) + 1
        for (key, n_train, acc, rmse_), row in zip(lines[1:], rows):
            assert key == keys[row.student] and int(n_train) == row.n_train
            assert float(acc) == row.acc and float(rmse_) == row.rmse


def make_checkpoint(tmp_path, seed=0):
    train = small_responses()
    q = small_qmatrix()
    g = build_relation_graph(train, q)
    params = init_params(4, 5, 3, seed=seed)
    ckpt = Checkpoint(
        params=params,
        config={},
        graph=g,
        student_keys=train.student_keys,
        exercise_keys=train.exercise_keys,
        concept_keys=q.concept_keys,
    )
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ckpt)
    return path, ckpt


class TestEvaluateCheckpoint:
    def test_end_to_end_report(self, tmp_path):
        path, _ = make_checkpoint(tmp_path)
        test_csv = tmp_path / "test.csv"
        test_csv.write_text(
            "student,exercise,score\ns0,e2,1\ns1,e3,0\ns2,e0,1\ns3,e1,0\n"
        )
        report = evaluate_checkpoint(path, test_csv)
        assert 0.0 <= report.acc <= 1.0
        assert 0.0 <= report.rmse <= 1.0
        assert len(report.per_student) == 4
        # ranking uses stored train-graph counts: s0,s1 have 3, s2,s3 have 2
        tail_ids = sorted(r.student for r in report.per_student if r.n_train == 2)
        assert tail_ids == [2, 3]

    def test_unknown_keys_rejected(self, tmp_path):
        path, _ = make_checkpoint(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("student,exercise,score\nghost,e0,1\n")
        with pytest.raises(ValueError, match="outside the checkpoint universe"):
            evaluate_checkpoint(path, bad)

    def test_align_preserves_scores(self, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("s1,e4,1\ns0,e2,0\n")
        rs = align_responses(
            load_responses(csv),
            ("s0", "s1", "s2", "s3"),
            ("e0", "e1", "e2", "e3", "e4"),
        )
        assert rs.n_students == 4 and rs.n_exercises == 5
        npt.assert_array_equal(rs.students, [1, 0])
        npt.assert_array_equal(rs.exercises, [4, 2])
        npt.assert_array_equal(rs.scores, [1, 0])


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A short fit, with the split and train records it handed train_epoch."""
    root = tmp_path_factory.mktemp("fit")
    responses, qmatrix = write_synthetic(root, make_synthetic(60, 20, 5, seed=0))
    seen = {}

    def recording(params, split, train_set, *args, **kwargs):
        seen.update(split=split, train_set=train_set)
        return train_epoch(params, split, train_set, *args, **kwargs)

    train_epoch = trainkit.train_epoch
    config = trainkit.TrainConfig(epochs=2, batch_size=64, min_interactions=1, train_ratio=0.7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainkit, "train_epoch", recording)
        result = trainkit.fit(config, responses, qmatrix, root / "run")
    return result, seen["split"], seen["train_set"]


class TestScoringAfterFit:
    def test_predict_on_the_checkpoint_graph_equals_the_fit_time_one_bitwise(self, fitted):
        result, fit_split, train_set = fitted
        ckpt = load_checkpoint(result.checkpoint_path, optimizer=False)
        split = directed_split(ckpt.graph)
        m, n = train_set.n_students, train_set.n_exercises
        students, exercises = np.divmod(np.arange(m * n), n)  # every pair
        scores = []
        for s in (fit_split, split):
            diag, nodes = infer(ckpt.params, s)
            scores.append(predict(diag, nodes, s, students, exercises).value)
        assert scores[0].tobytes() == scores[1].tobytes()

    def test_per_student_n_train_is_the_train_record_count(self, fitted):
        result, _, train_set = fitted
        report = evaluate_checkpoint(result.checkpoint_path, result.test_path)
        ids = [r.student for r in report.per_student]
        assert len(ids) > 30
        assert [r.n_train for r in report.per_student] == train_set.student_counts()[ids].tolist()


class TestCaseStudy:
    def test_slices_and_consistency_flag(self, tmp_path):
        path, ckpt = make_checkpoint(tmp_path)
        test_set = small_responses()
        study = case_study(ckpt, ["s0", "s2"], ["e3", "e0"], test_set)
        # e3 covers c0,c1; e0 covers c0 -> union {c0, c1}
        assert study.concept_labels == ["c0", "c1"]
        assert study.exercise_concepts == {3: (0, 1), 0: (0,)}
        assert study.mastery.shape == (2, 2)
        assert study.difficulty.shape == (2, 2)
        # scores present for pairs that exist in the records
        assert study.scores[(0, 0)] == 1  # s0 answered e0 correctly
        flag = study.consistent(0, 0)
        mastery = study.mastery[0, 0]
        difficulty = study.difficulty[1, 0]  # e0 is second in exercise_ids
        assert flag == ((mastery > difficulty) == True)  # noqa: E712 - score is 1
        assert study.consistent(2, 0) is None  # s2 never answered e0

    def test_synthetic_consistency_both_directions(self):
        study = CaseStudy(
            student_ids=[0],
            exercise_ids=[0],
            student_labels=["s0"],
            exercise_labels=["e0"],
            concept_ids=[0, 1],
            concept_labels=["c0", "c1"],
            mastery=np.array([[0.9, 0.8]]),
            difficulty=np.array([[0.5, 0.6]]),
            exercise_concepts={0: (0, 1)},
            scores={(0, 0): 1},
        )
        assert study.consistent(0, 0) is True  # mastery dominates, answered right
        study.scores[(0, 0)] = 0
        assert study.consistent(0, 0) is False

    def test_unknown_ids_rejected(self, tmp_path):
        _, ckpt = make_checkpoint(tmp_path)
        with pytest.raises(ValueError, match="unknown student"):
            case_study(ckpt, ["nope"], ["e0"])
        with pytest.raises(ValueError, match="unknown exercise"):
            case_study(ckpt, ["s0"], ["nope"])

    @pytest.mark.parametrize(
        "students, exercises, concepts, header",
        [(["s0"], [], [], "concept,mastery:s0"), ([], ["e3"], [0, 1], "concept,difficulty:e3")],
        ids=["no exercise", "no student"],
    )
    def test_an_empty_id_list_is_valid(self, tmp_path, students, exercises, concepts, header):
        _, ckpt = make_checkpoint(tmp_path)
        study = case_study(ckpt, students, exercises)
        assert study.concept_ids == concepts
        assert study.mastery.shape == (len(students), len(concepts))
        assert study.difficulty.shape == (len(exercises), len(concepts))
        assert study.concept_csv().splitlines()[0] == header

    def test_csv_emitters(self, tmp_path):
        _, ckpt = make_checkpoint(tmp_path)
        study = case_study(ckpt, ["s2"], ["e3"], small_responses())
        lines = study.concept_csv().splitlines()
        assert lines[0] == "concept,mastery:s2,difficulty:e3"
        assert len(lines) == 3  # c0 and c1
        out = study.outcome_csv().splitlines()
        assert out[0] == "student,exercise,score,consistent"
        assert out[1].startswith("s2,e3,1,")
