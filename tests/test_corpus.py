import csv
import io
import json
import logging
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scdkit import corpus
from scdkit.corpus import (
    QMatrix,
    ResponseFormatError,
    ResponseSet,
    dataset_stats,
    distinct_ids,
    filter_min_interactions,
    load_qmatrix,
    load_responses,
    split_train_test,
    write_csv,
    write_responses,
)
from scdkit.relgraph import build_relation_graph, directed_split
from scdkit.synth import make_synthetic, write_synthetic
from conftest import small_qmatrix, small_responses


def write(path, text):
    path.write_text(text)
    return path


def concept_edges(rs: ResponseSet, q: QMatrix) -> tuple[list, list]:
    """The exercise and concept of each c2e edge of the graph built from `q`."""
    c2e = directed_split(build_relation_graph(rs, q)).c2e
    return c2e.heads.tolist(), c2e.tails.tolist()


class TestLoadResponses:
    def test_basic_with_header(self, tmp_path):
        p = write(
            tmp_path / "r.csv",
            "student,exercise,score\nalice,ex9,1\nbob,ex9,0\nalice,ex2,0\n",
        )
        rs = load_responses(p)
        assert rs.n_students == 2 and rs.n_exercises == 2
        assert rs.student_keys == ("alice", "bob")
        assert rs.exercise_keys == ("ex9", "ex2")  # first-appearance order
        npt.assert_array_equal(rs.students, [0, 1, 0])
        npt.assert_array_equal(rs.exercises, [0, 0, 1])
        npt.assert_array_equal(rs.scores, [1, 0, 0])

    def test_headerless_and_float_scores(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1.0\nb,x,0.0\n"))
        npt.assert_array_equal(rs.scores, [1, 0])

    def test_duplicate_pair_keeps_first(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1\na,x,0\na,y,0\n"))
        assert len(rs) == 2
        npt.assert_array_equal(rs.scores, [1, 0])

    def test_bad_score_reports_line(self, tmp_path):
        with pytest.raises(ResponseFormatError, match="line 2"):
            load_responses(write(tmp_path / "r.csv", "a,x,1\nb,y,0.5\n"))
        with pytest.raises(ResponseFormatError, match="line 1"):
            load_responses(write(tmp_path / "r2.csv", "a,x,yes\n"))

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(ResponseFormatError, match="3 columns"):
            load_responses(write(tmp_path / "r.csv", "a,x\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ResponseFormatError, match="no response records"):
            load_responses(write(tmp_path / "r.csv", "student,exercise,score\n"))

    def test_blank_lines_skipped(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1\n\nb,y,0\n"))
        assert len(rs) == 2


class TestLoadQMatrix:
    def test_resolves_against_response_universe(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1\na,y,0\n"))
        q = load_qmatrix(write(tmp_path / "q.csv", "exercise,concept\nx,alg\ny,geo\ny,alg\n"), rs)
        assert q.n_exercises == 2 and q.n_concepts == 2
        assert q.concept_keys == ("alg", "geo")
        assert concept_edges(rs, q) == ([0, 1, 1], [0, 0, 1])

    def test_unknown_exercises_ignored(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1\n"))
        q = load_qmatrix(write(tmp_path / "q.csv", "x,alg\nghost,alg\n"), rs)
        assert q.n_exercises == 1 and concept_edges(rs, q) == ([0], [0])

    def test_uncovered_exercise_rejected(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1\na,y,0\n"))
        with pytest.raises(ValueError, match="no concept"):
            load_qmatrix(write(tmp_path / "q.csv", "x,alg\n"), rs)

    def test_duplicate_pairs_collapse(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1\n"))
        q = load_qmatrix(write(tmp_path / "q.csv", "x,alg\nx,alg\n"), rs)
        assert concept_edges(rs, q) == ([0], [0])

    def test_concepts_of_sorted(self):
        c2e = directed_split(build_relation_graph(small_responses(), small_qmatrix())).c2e
        npt.assert_array_equal(c2e.tails[c2e.heads == 3], [0, 1])
        npt.assert_array_equal(c2e.indegrees(), [1, 1, 1, 2, 1])


ID_DTYPES = [np.int8, np.int32, np.int64, np.intp, np.uint8, np.uint64]


class TestDistinctIds:
    @pytest.mark.parametrize("dtype", ID_DTYPES)
    @pytest.mark.parametrize(
        "ids",
        [[], [4], [4, 4, 4], [3, 1, 3, 3, 1, 0, 3, 3, 1]],
        ids=["empty", "single", "all-equal", "duplicates"],
    )
    def test_the_edge_cases_equal_np_unique(self, ids, dtype):
        ids = np.array(ids, dtype=dtype)
        got, want = distinct_ids(ids), np.unique(ids)
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(dtype=st.sampled_from(ID_DTYPES), data=st.data())
    def test_equals_np_unique_in_values_and_dtype(self, dtype, data):
        values = hnp.from_dtype(np.dtype(dtype))
        pool = data.draw(st.lists(values, min_size=1, max_size=4))  # few values: many duplicates
        ids = data.draw(
            st.one_of(
                hnp.arrays(dtype, st.integers(0, 60), elements=values),
                st.lists(st.sampled_from(pool), max_size=60).map(lambda v: np.array(v, dtype)),
            )
        )
        got, want = distinct_ids(ids), np.unique(ids)
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)


class TestFilterMinInteractions:
    def test_strictly_above_boundary(self):
        # s0 has 3 records, s1 has 3, s2 has 2, s3 has 2
        rs = small_responses()
        out = filter_min_interactions(rs, 2)
        assert out.n_students == 2
        assert out.student_keys == ("s0", "s1")
        assert len(out) == 6

    def test_zero_keeps_everyone(self, tmp_path):
        # every loaded student and exercise has a record, so at 0 the filter
        # returns its input field by field: set-up need not skip it
        rp, _ = write_synthetic(tmp_path, make_synthetic(30, 15, 5, seed=3))
        for rs in (small_responses(), load_responses(rp)):
            out = filter_min_interactions(rs, 0)
            for name in ("students", "exercises", "scores"):
                got, want = getattr(out, name), getattr(rs, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert (out.n_students, out.n_exercises) == (rs.n_students, rs.n_exercises)
            assert (out.student_keys, out.exercise_keys) == (rs.student_keys, rs.exercise_keys)

    def test_redensifies_exercises(self):
        rs = small_responses()
        out = filter_min_interactions(rs, 2)
        # survivors answered e0,e1,e2,e4 -> remapped to 0..3
        assert out.n_exercises == 4
        assert out.exercise_keys == ("e0", "e1", "e2", "e4")
        assert out.exercises.max() == 3

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError, match="no students"):
            filter_min_interactions(small_responses(), 99)


class TestSplit:
    def test_per_student_floor_counts(self):
        rs = small_responses()
        train, test = split_train_test(rs, 0.7, seed=0)
        # per student: c=3 -> floor(0.9)=0 test; c=2 -> floor(0.6)=0
        assert len(test) == 0 and len(train) == len(rs)
        train, test = split_train_test(rs, 0.5, seed=0)
        npt.assert_array_equal(np.bincount(test.students, minlength=4), [1, 1, 1, 1])

    def test_every_student_keeps_a_train_record(self):
        rng = np.random.default_rng(11)
        n = 400
        students = rng.integers(0, 30, n).astype(np.intp)
        exercises = np.arange(n, dtype=np.intp)  # all distinct, no dedup needed
        rs = ResponseSet(
            students,
            exercises,
            rng.integers(0, 2, n).astype(np.int64),
            30,
            n,
            tuple(f"s{i}" for i in range(30)),
            tuple(f"e{i}" for i in range(n)),
        )
        train, test = split_train_test(rs, 0.2, seed=3)
        counts = np.bincount(train.students, minlength=30)
        present = np.bincount(rs.students, minlength=30) > 0
        assert np.all(counts[present] >= 1)

    def test_partition_is_exact(self):
        rs = small_responses()
        train, test = split_train_test(rs, 0.5, seed=42)
        assert len(train) + len(test) == len(rs)
        pairs = {(int(s), int(e)) for s, e in zip(rs.students, rs.exercises)}
        got = {(int(s), int(e)) for s, e in zip(train.students, train.exercises)}
        got |= {(int(s), int(e)) for s, e in zip(test.students, test.exercises)}
        assert got == pairs

    def test_single_record_student_falls_back_with_warning(self, caplog):
        rs = ResponseSet(
            np.array([0, 1, 1, 1], dtype=np.intp),
            np.array([0, 0, 1, 2], dtype=np.intp),
            np.array([1, 0, 1, 0], dtype=np.int64),
            2,
            3,
            ("a", "b"),
            ("x", "y", "z"),
        )
        with caplog.at_level(logging.WARNING, logger="scdkit.corpus"):
            train, test = split_train_test(rs, 0.2, seed=0)
        assert "1 students" in caplog.text
        assert 0 in train.students and 0 not in test.students

    def test_deterministic_given_seed(self):
        rs = small_responses()
        a = split_train_test(rs, 0.5, seed=9)[1]
        b = split_train_test(rs, 0.5, seed=9)[1]
        npt.assert_array_equal(a.students, b.students)
        npt.assert_array_equal(a.exercises, b.exercises)

    def test_ratio_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_train_test(small_responses(), bad, seed=0)


class TestStats:
    def test_hand_computed_density(self):
        stats = dataset_stats(small_responses(), small_qmatrix())
        assert stats.n_students == 4
        assert stats.n_exercises == 5
        assert stats.n_concepts == 3
        assert stats.n_interactions == 10
        assert stats.interactions_per_student == 2.5
        assert stats.density == 10 / 20
        assert json.loads(stats.to_json())["density"] == 0.5


class TestByteOrderMark:
    # spreadsheet exports start a UTF-8 file with U+FEFF
    def test_responses_with_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("\ufeffstudent,exercise,score\na,x,1\nb,x,0\n", encoding="utf-8")
        rs = load_responses(p)
        assert rs.student_keys == ("a", "b") and len(rs) == 2

    def test_headerless_responses_keep_the_first_key_clean(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("\ufeffa,x,1\nb,x,0\n", encoding="utf-8")
        assert load_responses(p).student_keys == ("a", "b")

    def test_headerless_qmatrix_names_the_first_exercise(self, tmp_path):
        rs = load_responses(write(tmp_path / "r.csv", "a,x,1\n"))
        p = tmp_path / "q.csv"
        p.write_text("\ufeffx,alg\n", encoding="utf-8")
        assert load_qmatrix(p, rs).concept_keys == ("alg",)

    def test_only_a_leading_mark_is_dropped(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,x,1\n\ufeffb,x,0\n", encoding="utf-8")
        assert load_responses(p).student_keys == ("a", "\ufeffb")


# --- The loaders' contract, pinned line by line ------------------------------
#
# The loaders read a CSV in chunks of corpus.CHUNK_ROWS rows. Every case below
# runs at the default chunk size and at chunks of 1, 2 and 3 rows, so that a
# duplicate pair, a key's first appearance and an error land past a chunk
# boundary.


@pytest.fixture(params=[None, 1, 2, 3], ids=["chunk-default", "chunk1", "chunk2", "chunk3"])
def chunk_rows(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(corpus, "CHUNK_ROWS", request.param)
    return request.param


def format_error(load, *args) -> str:
    with pytest.raises(ResponseFormatError) as info:
        load(*args)
    return str(info.value)


RESPONSE_ERRORS = [
    ("a,x,1\nb,y\n", "line 2: expected 3 columns student,exercise,score, got 2"),
    ("a,x,1\nb,y,0,extra\n", "line 2: expected 3 columns student,exercise,score, got 4"),
    ("a,x,yes\n", "line 1: score 'yes' is not a number"),
    ("a,x,1\nb,y, 0.5 \n", "line 2: score must be 0 or 1, got '0.5'"),
    ("a,x,1\nb,y,,\n", "line 2: expected 3 columns student,exercise,score, got 4"),
    (",,\n", "line 1: score '' is not a number"),
    # the header is recognised on line 1 only
    ("a,x,1\nstudent,exercise,score\n", "line 2: score 'score' is not a number"),
    ("\nstudent,exercise,score\na,x,1\n", "line 2: score 'score' is not a number"),
    # blank and whitespace-only rows are skipped, but still counted
    ("a,x,1\n\n   \n\"\"\nb,y,2\n", "line 5: score must be 0 or 1, got '2'"),
    # the earlier of a column-count and a score error wins, in either order
    ("a,x,9\nb,y\n", "line 1: score must be 0 or 1, got '9'"),
    ("a,x\nb,y,9\n", "line 1: expected 3 columns student,exercise,score, got 2"),
    # a duplicate pair with a bad score is still refused
    ("a,x,1\na,x,7\n", "line 2: score must be 0 or 1, got '7'"),
    # errors past the first chunks
    ("student,exercise,score\na,x,1\nb,x,0\n\na,y,1\nc,z,0\na,x,1\nd,w,n\n",
     "line 8: score 'n' is not a number"),
    ("a,x,1\nb,x,0\na,y,1\nc,z,0\na,x,1\nd,w\nd,w,5\n",
     "line 6: expected 3 columns student,exercise,score, got 2"),
    # a quoted field may hold a line break (LF, CRLF or CR): an error names the
    # file line its row starts on
    ('"a\nb",x,1\nc,y,7\n', "line 3: score must be 0 or 1, got '7'"),
    ('a,"x\r\ny",1\r\nc,y\r\n', "line 3: expected 3 columns student,exercise,score, got 2"),
    ('"a\rb",x,1\nc,y,7\n', "line 3: score must be 0 or 1, got '7'"),
    ('a,x,1\n"b\n\nc",y,7\n', "line 2: score must be 0 or 1, got '7'"),
    ('a,x,1\n"b\nc",y\n', "line 2: expected 3 columns student,exercise,score, got 2"),
    ('student,exercise,score\n"a\n\nb",x,1\n\nc,"y\nz",0\nd,y,2\n',
     "line 8: score must be 0 or 1, got '2'"),
]


class TestResponseLoaderContract:
    @pytest.mark.parametrize("text,message", RESPONSE_ERRORS)
    def test_error_text_and_line(self, tmp_path, chunk_rows, text, message):
        assert format_error(load_responses, write(tmp_path / "r.csv", text)) == message

    def test_header_is_matched_stripped_and_caseless(self, tmp_path, chunk_rows):
        rs = load_responses(write(tmp_path / "r.csv", " Student , EXERCISE,score\na,x,1\n"))
        assert rs.student_keys == ("a",) and len(rs) == 1

    def test_keys_in_first_appearance_order_across_chunks(self, tmp_path, chunk_rows):
        text = "b,y,1\na,y,0\n\nc,x,1\n a ,z,1.0\nb,x,0\nd,y,0\n"
        rs = load_responses(write(tmp_path / "r.csv", text))
        assert rs.student_keys == ("b", "a", "c", "d")
        assert rs.exercise_keys == ("y", "x", "z")
        npt.assert_array_equal(rs.students, [0, 1, 2, 1, 0, 3])
        npt.assert_array_equal(rs.exercises, [0, 0, 1, 2, 1, 0])
        npt.assert_array_equal(rs.scores, [1, 0, 1, 1, 0, 0])
        assert (rs.students.dtype, rs.exercises.dtype, rs.scores.dtype) == (
            np.intp, np.intp, np.int64,
        )

    def test_duplicate_pair_across_chunks_keeps_first_score(self, tmp_path, chunk_rows):
        text = "a,x,1\nb,x,0\na,y,0\nb,x,1\n a , x ,0\nc,y,1\n"
        rs = load_responses(write(tmp_path / "r.csv", text))
        assert len(rs) == 4
        npt.assert_array_equal(rs.students, [0, 1, 0, 2])
        npt.assert_array_equal(rs.exercises, [0, 0, 1, 1])
        npt.assert_array_equal(rs.scores, [1, 0, 0, 1])

    def test_csv_error_after_a_malformed_row_loses_to_it(self, tmp_path, chunk_rows):
        huge = "0" * (csv.field_size_limit() + 1)
        p = write(tmp_path / "r.csv", f"a,x,1\nb,y\nc,z,{huge}\n")
        assert format_error(load_responses, p) == (
            "line 2: expected 3 columns student,exercise,score, got 2"
        )
        p = write(tmp_path / "r2.csv", f"a,x,1\nb,y,3\nc,z,{huge}\n")
        assert format_error(load_responses, p) == "line 2: score must be 0 or 1, got '3'"
        limit = f"field larger than field limit ({csv.field_size_limit()})"
        p = write(tmp_path / "r3.csv", f"a,x,1\nb,y,0\nc,z,{huge}\n")
        assert format_error(load_responses, p) == f"line 3: {limit}"
        # the line counts the header and the blank rows
        p = write(tmp_path / "r4.csv", f"student,exercise,score\n\na,x,1\n \nc,z,{huge}\n")
        assert format_error(load_responses, p) == f"line 5: {limit}"
        # and the lines a quoted line break adds
        p = write(tmp_path / "r5.csv", f'"a\nb",x,1\nb,"y\r\nz",0\nc,z,{huge}\n')
        assert format_error(load_responses, p) == f"line 5: {limit}"

    def test_no_records_after_blank_rows(self, tmp_path, chunk_rows):
        p = write(tmp_path / "r.csv", "student,exercise,score\n\n  \n")
        assert format_error(load_responses, p) == f"{p}: no response records found"


QMATRIX_ERRORS = [
    ("x,alg\ny,geo,extra\n", "line 2: expected 2 columns exercise,concept, got 3"),
    ("x\n", "line 1: expected 2 columns exercise,concept, got 1"),
    # a row's column count is checked before its exercise is looked up
    ("x,alg\n\nghost,alg,3\n", "line 3: expected 2 columns exercise,concept, got 3"),
    ("exercise,concept\nx,alg\nexercise,concept,x\n",
     "line 3: expected 2 columns exercise,concept, got 3"),
    ('exercise,concept\n"e\n1",c1\ne2,c2,x\n',
     "line 4: expected 2 columns exercise,concept, got 3"),
    ('"x\r\n",alg\n\n"y","a\rb\nc",x\n', "line 4: expected 2 columns exercise,concept, got 3"),
]


class TestQMatrixLoaderContract:
    @pytest.fixture
    def rs(self, tmp_path):
        return load_responses(write(tmp_path / "r.csv", "a,x,1\na,y,0\n"))

    @pytest.mark.parametrize("text,message", QMATRIX_ERRORS)
    def test_error_text_and_line(self, tmp_path, chunk_rows, rs, text, message):
        p = write(tmp_path / "q.csv", text)
        assert format_error(load_qmatrix, p, rs) == message

    def test_csv_error_names_its_line(self, tmp_path, chunk_rows, rs):
        huge = "0" * (csv.field_size_limit() + 1)
        p = write(tmp_path / "q.csv", f"exercise,concept\nx,alg\n\ny,{huge}\n")
        assert format_error(load_qmatrix, p, rs) == (
            f"line 4: field larger than field limit ({csv.field_size_limit()})"
        )
        p = write(tmp_path / "q2.csv", f'exercise,concept\n"x\ny",alg\n\ny,{huge}\n')
        assert format_error(load_qmatrix, p, rs) == (
            f"line 5: field larger than field limit ({csv.field_size_limit()})"
        )

    def test_header_off_line_one_is_an_unknown_exercise(self, tmp_path, chunk_rows, rs):
        q = load_qmatrix(write(tmp_path / "q.csv", "\nexercise,concept\nx,alg\ny,alg\n"), rs)
        assert q.concept_keys == ("alg",) and concept_edges(rs, q) == ([0, 1], [0, 0])

    def test_unknown_exercises_register_no_concept(self, tmp_path, chunk_rows, rs):
        text = " Exercise,concept\nghost,zeta\ny, geo \n\nx,alg\nghost,beta\ny,alg\nx,alg\ny,geo\n"
        q = load_qmatrix(write(tmp_path / "q.csv", text), rs)
        assert q.concept_keys == ("geo", "alg")
        npt.assert_array_equal(q.exercises, [0, 1, 1])
        npt.assert_array_equal(q.concepts, [1, 0, 1])
        assert (q.exercises.dtype, q.concepts.dtype) == (np.intp, np.intp)

    def test_exercise_without_concept_is_named(self, tmp_path, chunk_rows, rs):
        with pytest.raises(ValueError) as info:
            load_qmatrix(write(tmp_path / "q.csv", "ghost,alg\nx,alg\n"), rs)
        assert str(info.value) == (
            "1 exercises have no concept in the Q-matrix (first missing: ['y'])"
        )

    def test_no_usable_rows(self, tmp_path, chunk_rows, rs):
        p = write(tmp_path / "q.csv", "exercise,concept\nghost,alg\n")
        assert format_error(load_qmatrix, p, rs) == f"{p}: no usable exercise-concept rows"


# --- The one CSV writer -------------------------------------------------------


def written(rows) -> str:
    out = io.StringIO()
    write_csv(out, rows)
    return out.getvalue()


class TestWriteCsv:
    # every field csv.writer quotes for LF lines, and values it formats itself
    PLAIN = [
        ["student", "exercise", "score"],
        ["a,b", 'say "hi"', 1],
        ["c\nd", "", 0.25],
        [" e ", None, True],
        [""],
        ["ø", "x", 0],
    ]

    def test_fields_without_a_cr_keep_the_lf_writers_bytes(self, chunk_rows):
        reference = io.StringIO()
        csv.writer(reference, lineterminator="\n").writerows(self.PLAIN)
        assert written(self.PLAIN) == reference.getvalue()
        assert written([]) == ""

    def test_a_field_with_a_lone_cr_is_quoted(self, chunk_rows):
        assert written([["a\rb", "x", 1], ["c", "y", 0]]) == '"a\rb",x,1\nc,y,0\n'
        rows = [*self.PLAIN, ["a\rb", "x\r\ny", 1], ["c", "y\r", "\rz,"], *self.PLAIN]
        back = list(csv.reader(io.StringIO(written(rows), newline="")))
        assert back == [["" if f is None else str(f) for f in row] for row in rows]

    def test_an_id_with_a_lone_cr_round_trips_through_the_responses_file(
        self, tmp_path, chunk_rows
    ):
        rs = load_responses(write(tmp_path / "r.csv", '"a\rb",x,1\nc,y,0\n"a\rb",y,0\n'))
        assert rs.student_keys == ("a\rb", "c") and len(rs) == 3
        write_responses(tmp_path / "w.csv", rs)
        back = load_responses(tmp_path / "w.csv")
        assert (back.student_keys, back.exercise_keys) == (rs.student_keys, rs.exercise_keys)
        for column in ("students", "exercises", "scores"):
            npt.assert_array_equal(getattr(back, column), getattr(rs, column))


# --- Equal to the row-at-a-time loaders --------------------------------------


def rowwise_load_responses(path) -> ResponseSet:
    """The loader as it read one row at a time, before the chunked
    column-wise ingest: the reference for output, errors and memory."""
    student_index, exercise_index = {}, {}
    seen_pairs = set()
    students, exercises, scores = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, next_line = csv.reader(fh), 1
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 1  # the line the row starts on
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and corpus._is_header(row, ("student", "exercise", "score")):
                continue
            if len(row) != 3:
                raise ResponseFormatError(
                    f"line {line_no}: expected 3 columns student,exercise,score, got {len(row)}"
                )
            s_key, e_key = row[0].strip(), row[1].strip()
            score = corpus._parse_score(row[2].strip(), line_no)
            s = student_index.setdefault(s_key, len(student_index))
            e = exercise_index.setdefault(e_key, len(exercise_index))
            if (s, e) in seen_pairs:
                continue
            seen_pairs.add((s, e))
            students.append(s)
            exercises.append(e)
            scores.append(score)
    if not students:
        raise ResponseFormatError(f"{path}: no response records found")
    return ResponseSet(
        np.array(students, dtype=np.intp),
        np.array(exercises, dtype=np.intp),
        np.array(scores, dtype=np.int64),
        len(student_index),
        len(exercise_index),
        tuple(student_index),
        tuple(exercise_index),
    )


def rowwise_load_qmatrix(path, rs: ResponseSet) -> QMatrix:
    """The row-at-a-time Q-matrix loader: the reference for the chunked one."""
    exercise_index = {key: i for i, key in enumerate(rs.exercise_keys)}
    concept_index, seen, ex, co = {}, set(), [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, next_line = csv.reader(fh), 1
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and corpus._is_header(row, ("exercise", "concept")):
                continue
            if len(row) != 2:
                raise ResponseFormatError(
                    f"line {line_no}: expected 2 columns exercise,concept, got {len(row)}"
                )
            e_key, c_key = row[0].strip(), row[1].strip()
            if e_key not in exercise_index:
                continue
            e = exercise_index[e_key]
            c = concept_index.setdefault(c_key, len(concept_index))
            if (e, c) not in seen:
                seen.add((e, c))
                ex.append(e)
                co.append(c)
    if not ex:
        raise ResponseFormatError(f"{path}: no usable exercise-concept rows")
    covered = np.zeros(rs.n_exercises, dtype=bool)
    covered[np.array(ex)] = True
    if not covered.all():
        missing = [rs.exercise_keys[i] for i in np.flatnonzero(~covered)[:5]]
        raise ValueError(
            f"{int((~covered).sum())} exercises have no concept in the Q-matrix "
            f"(first missing: {missing})"
        )
    order = np.lexsort((co, ex))
    return QMatrix(
        np.array(ex, dtype=np.intp)[order],
        np.array(co, dtype=np.intp)[order],
        rs.n_exercises,
        len(concept_index),
        tuple(concept_index),
    )


def outcome(load, *args):
    try:
        return "ok", load(*args)
    except (ValueError, csv.Error) as err:
        return type(err).__name__, str(err)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


def response_fields(rs: ResponseSet) -> tuple:
    return (
        rs.students, rs.exercises, rs.scores, rs.n_students, rs.n_exercises,
        rs.student_keys, rs.exercise_keys,
    )


def qmatrix_fields(q: QMatrix) -> tuple:
    return (q.exercises, q.concepts, q.n_exercises, q.n_concepts, q.concept_keys)


def assert_same_outcome(got, want, fields):
    assert got[0] == want[0]
    if want[0] == "ok":
        assert_same_arrays(fields(got[1]), fields(want[1]))
    else:
        assert got[1] == want[1]


def assert_same_as_rowwise(responses_path, qmatrix_path):
    want = outcome(rowwise_load_responses, responses_path)
    assert_same_outcome(outcome(load_responses, responses_path), want, response_fields)
    if want[0] == "ok":
        rs = want[1]
        assert_same_outcome(
            outcome(load_qmatrix, qmatrix_path, rs),
            outcome(rowwise_load_qmatrix, qmatrix_path, rs),
            qmatrix_fields,
        )


# "a\nb" and "x\r\ny" are written quoted and span two lines; "c\rd" is written
# bare, so its CR ends the row
ODD_FIELDS = [
    "a", "b", " a", "b ", "é", "ø,x", 'q"t', " c", "", " ", "0", "1", " 1.0",
    "0.0", "1e0", "2", "-0", "nan", "student", "exercise", "score", "concept",
    "a\nb", "x\r\ny", "c\rd",
]
SCORES = ["0", "1", " 1.0", "0.0", "1e0", "-0"]
KEYS = ["a", "b", " a", "b ", "é", "ø,x", 'q"t', " c", "", "a\nb", "x\r\ny"]
RESPONSE_ROW = st.one_of(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS), st.sampled_from(SCORES)),
    st.lists(st.sampled_from(ODD_FIELDS), max_size=4),
)
QMATRIX_ROW = st.one_of(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(["alg", " geo", "alg ", "ø,x"])),
    st.lists(st.sampled_from(ODD_FIELDS), max_size=3),
)


def csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


class TestSameAsRowwise:
    @settings(max_examples=150, deadline=None)
    @given(
        responses=st.lists(RESPONSE_ROW, max_size=20),
        qmatrix=st.lists(QMATRIX_ROW, max_size=12),
        header=st.sampled_from([None, ("student", "exercise", "score"), (" Student", "score")]),
        chunk=st.sampled_from([None, 1, 2, 3]),
    )
    def test_odd_ids_duplicates_and_errors(self, responses, qmatrix, header, chunk):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(corpus, "CHUNK_ROWS", chunk)
            rp, qp = Path(tmp) / "r.csv", Path(tmp) / "q.csv"
            rp.write_text(csv_text(header, responses), encoding="utf-8")
            qp.write_text(csv_text(("exercise", "concept"), qmatrix), encoding="utf-8")
            assert_same_as_rowwise(rp, qp)

    @pytest.mark.parametrize("shape", [(200, 50, 10), (5000, 300, 30)], ids=["S", "M"])
    def test_workload_data(self, tmp_path, shape):
        rp, qp = write_synthetic(tmp_path, make_synthetic(*shape, seed=5))
        assert_same_as_rowwise(rp, qp)


@pytest.fixture(scope="module")
def many_rows(tmp_path_factory):
    """A generated responses file at the M benchmark's shape: 43,855 rows."""
    rp, _ = write_synthetic(tmp_path_factory.mktemp("many"), make_synthetic(5000, 300, 30, seed=1))
    return rp


def traced_peak(load, path) -> int:
    tracemalloc.start()
    try:
        load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_memory_stays_under_the_rowwise_loader(many_rows):
    # the file spans many chunks; a loader that read every row before
    # converting the columns would peak at about twice the row-wise loader
    n_rows = many_rows.read_text().count("\n") - 1
    assert n_rows >= 40_000 and n_rows > 4 * corpus.CHUNK_ROWS
    assert traced_peak(load_responses, many_rows) <= traced_peak(rowwise_load_responses, many_rows)
