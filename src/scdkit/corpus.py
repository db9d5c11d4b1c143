"""Response-record and Q-matrix ingestion, sparse-student filtering, splits,
and `write_csv`, the writer of every CSV that holds an id; train_log.csv and
the viewgen-audit table hold numbers only and are formatted by hand.

Raw student/exercise/concept keys are arbitrary strings; loaders remap them
to dense 0-based indices in first-appearance order and keep the two-way
mapping for reporting. All functions are pure: they return new objects and
never mutate their inputs.

Both CSV loaders share one reader. It opens a file as utf-8-sig and pulls
`csv.reader` rows CHUNK_ROWS at a time, so memory holds one chunk of rows
plus the integer columns built so far. Each chunk is converted column-wise:
new keys get ids per chunk, each distinct score string is parsed once, and
duplicate pairs are dropped at the end with one `np.unique`. Errors name the
1-based file line where the earliest bad row starts (a row spans lines when a
quoted field holds a line break), as a row-at-a-time reader would. What
`write_csv` writes reads back through this reader.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, compress, islice, repeat
from types import SimpleNamespace

import numpy as np

log = logging.getLogger(__name__)

CHUNK_ROWS = 256  # rows per chunk; larger chunks load a little faster but raise peak RSS


class ResponseFormatError(ValueError):
    """A response or Q-matrix file line that cannot be parsed."""


@dataclass(frozen=True, eq=False)
class ResponseSet:
    """Deduplicated (student, exercise, score) triplets over dense indices.

    At most one record per (student, exercise) pair; scores are 0/1.
    `student_keys[i]` is the raw key of dense student index i (likewise for
    exercises), so splits and filters can be reported in input terms.
    """

    students: np.ndarray
    exercises: np.ndarray
    scores: np.ndarray
    n_students: int
    n_exercises: int
    student_keys: tuple[str, ...]
    exercise_keys: tuple[str, ...]

    def __post_init__(self):
        if len(self.students) != len(self.exercises) or len(self.students) != len(self.scores):
            raise ValueError("record columns have mismatched lengths")
        if len(self.students) and (
            self.students.min() < 0
            or self.students.max() >= self.n_students
            or self.exercises.min() < 0
            or self.exercises.max() >= self.n_exercises
        ):
            raise ValueError("record index out of range")

    def __len__(self) -> int:
        return len(self.students)

    def student_counts(self) -> np.ndarray:
        """Records per student, length n_students."""
        return np.bincount(self.students, minlength=self.n_students)

    def replace_records(self, keep: np.ndarray) -> "ResponseSet":
        """Same universe and key maps, records restricted to positions `keep`."""
        return ResponseSet(
            self.students[keep],
            self.exercises[keep],
            self.scores[keep],
            self.n_students,
            self.n_exercises,
            self.student_keys,
            self.exercise_keys,
        )


@dataclass(frozen=True, eq=False)
class QMatrix:
    """The Q-matrix as loaded: distinct (exercise, concept) pairs, sorted, and
    the concept keys. `build_relation_graph` makes the pairs the graph's
    concept edges, where training and scoring read an exercise's concepts."""

    exercises: np.ndarray
    concepts: np.ndarray
    n_exercises: int
    n_concepts: int
    concept_keys: tuple[str, ...]


@dataclass(frozen=True)
class DatasetStats:
    n_students: int
    n_exercises: int
    n_concepts: int
    n_interactions: int
    interactions_per_student: float
    density: float

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_score(raw: str, line_no: int) -> int:
    try:
        value = float(raw)
    except ValueError:
        raise ResponseFormatError(f"line {line_no}: score {raw!r} is not a number") from None
    if value not in (0.0, 1.0):
        raise ResponseFormatError(f"line {line_no}: score must be 0 or 1, got {raw!r}")
    return int(value)


def _is_header(row: list[str], expected: tuple[str, ...]) -> bool:
    return tuple(c.strip().lower() for c in row) == expected


def _well_formed(chunk: list, lines, n_fields: int):
    """The rows of `chunk` that hold `n_fields` fields, with their line
    numbers, up to the first other row that is not blank; and that row's
    (line number, field count), or None."""
    keep, bad = [], None
    for i, row in enumerate(chunk):
        if len(row) == n_fields:
            keep.append(i)
        elif row and (len(row) > 1 or row[0].strip()):
            bad = (lines[i], len(row))
            break
    return [chunk[i] for i in keep], [lines[i] for i in keep], bad


def _start_lines(rows: list, before: int) -> list[int]:
    """The 1-based line each row starts on, and the line after the last row,
    for rows read after line `before`. A row spans one line more than its
    fields hold line breaks (LF, CR or CRLF, each inside a quoted field)."""
    spans = (1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row) for row in rows)
    return list(accumulate(spans, initial=before + 1))


def _read_rows(path, header: tuple[str, ...]):
    """Yield the rows of a CSV file that hold len(header) fields, in chunks
    read CHUNK_ROWS file rows at a time, each chunk with the 1-based line of
    the file that each of its rows starts on.

    The file is read as utf-8-sig: a byte-order mark at its start is dropped.
    Blank and whitespace-only rows are skipped but counted, and a row on line 1
    equal to `header` (stripped, in any case) is skipped. A row with another
    field count, or one the csv reader fails on, raises ResponseFormatError
    naming its line, only after the rows before it have been yielded, so that
    a caller that checks those rows first reports the earliest bad line.
    """
    n_fields = len(header)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        while True:
            chunk, failure = [], None
            before = reader.line_num
            try:
                chunk.extend(islice(reader, CHUNK_ROWS))  # keeps the rows read before an error
            except csv.Error as err:
                failure = err
            if failure is None and reader.line_num - before == len(chunk):
                starts = range(before + 1, reader.line_num + 2)  # one line per row
            else:
                starts = _start_lines(chunk, before)
            lines, line = starts[:-1], starts[-1]
            at_end = len(chunk) < CHUNK_ROWS
            if before == 0 and chunk and _is_header(chunk[0], header):
                del chunk[0]
                lines = lines[1:]
            bad = None
            if list(map(len, chunk)).count(n_fields) < len(chunk):
                chunk, lines, bad = _well_formed(chunk, lines, n_fields)
            if chunk:
                yield chunk, lines
            if bad is not None:
                raise ResponseFormatError(
                    f"line {bad[0]}: expected {n_fields} columns {','.join(header)}, got {bad[1]}"
                )
            if failure is not None:
                raise ResponseFormatError(f"line {line}: {failure}") from failure
            if at_end:
                return


def _cr_quoted(rows) -> str:
    """`rows` as CSV lines ending in LF, a field holding a CR quoted: a CRLF
    writer quotes both line breaks, and each line's CRLF is cut back to LF."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def write_csv(fh, rows) -> None:
    """Write `rows` to the text stream `fh` as CSV lines ending in LF, quoting
    only the fields that hold a comma, a quote, LF or CR. csv.writer quotes only
    its terminator's line breaks, but the loaders end a row at a lone CR too, so
    a chunk of CHUNK_ROWS rows whose text holds a CR is written by `_cr_quoted`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        writer.writerows(chunk)
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        fh.write(_cr_quoted(chunk) if "\r" in text else text)


def _dense_ids(keys: list[str], index: dict[str, int]) -> np.ndarray:
    """Dense ids of `keys`, adding unseen keys to `index` in first-appearance
    order."""
    for key in dict.fromkeys(keys):
        index.setdefault(key, len(index))
    return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))


def distinct_ids(ids: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the 1-D integer array `ids`, equal to
    `np.unique(ids)` in values and dtype; empty for an empty `ids`. One sort,
    then each value unlike the one before it: numpy 2's plain `np.unique`
    takes a hash path that imports `numpy.ma` and is slower on id arrays."""
    ordered = np.sort(ids)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def load_responses(path) -> ResponseSet:
    """Read `student,exercise,score` CSV (header optional) into a ResponseSet.

    Duplicate (student, exercise) pairs keep the first occurrence. Malformed
    lines raise ResponseFormatError with the 1-based line number.
    """
    student_index: dict[str, int] = {}
    exercise_index: dict[str, int] = {}
    score_of: dict[str, int] = {}  # raw score string -> 0 or 1
    students, exercises, scores = [], [], []

    for rows, lines in _read_rows(path, ("student", "exercise", "score")):
        s_col, e_col, t_col = zip(*rows)
        for raw in dict.fromkeys(t_col):  # the first bad score is the earliest
            if raw not in score_of:
                score_of[raw] = _parse_score(raw.strip(), lines[t_col.index(raw)])
        students.append(_dense_ids(list(map(str.strip, s_col)), student_index))
        exercises.append(_dense_ids(list(map(str.strip, e_col)), exercise_index))
        scores.append(np.fromiter(map(score_of.__getitem__, t_col), np.int64, len(t_col)))

    if not students:
        raise ResponseFormatError(f"{path}: no response records found")
    students, exercises = np.concatenate(students), np.concatenate(exercises)
    scores = np.concatenate(scores)
    _, first = np.unique(students * len(exercise_index) + exercises, return_index=True)
    if len(first) < len(students):
        keep = np.sort(first)
        students, exercises, scores = students[keep], exercises[keep], scores[keep]
    return ResponseSet(
        students,
        exercises,
        scores,
        len(student_index),
        len(exercise_index),
        tuple(student_index),
        tuple(exercise_index),
    )


def write_responses(path, rs: ResponseSet) -> None:
    """Write `rs` as a `student,exercise,score` CSV in raw keys, with a header."""
    rows = zip(rs.students.tolist(), rs.exercises.tolist(), rs.scores.tolist())
    keyed = ((rs.student_keys[s], rs.exercise_keys[e], t) for s, e, t in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_csv(fh, chain([("student", "exercise", "score")], keyed))


def load_qmatrix(path, rs: ResponseSet) -> QMatrix:
    """Read `exercise,concept` CSV against the exercise universe of `rs`.

    Rows naming exercises that never appear in `rs` are ignored (they are
    outside the node universe). Every exercise of `rs` must end up with at
    least one concept.
    """
    exercise_index = {key: i for i, key in enumerate(rs.exercise_keys)}
    concept_index: dict[str, int] = {}
    ex, co = [], []

    for rows, _ in _read_rows(path, ("exercise", "concept")):
        e_col, c_col = zip(*rows)
        e = np.fromiter(
            map(exercise_index.get, map(str.strip, e_col), repeat(-1)), np.intp, len(e_col)
        )
        known = e >= 0
        ex.append(e[known])
        co.append(_dense_ids(list(compress(map(str.strip, c_col), known)), concept_index))

    if not any(map(len, ex)):
        raise ResponseFormatError(f"{path}: no usable exercise-concept rows")
    ex, co = np.concatenate(ex), np.concatenate(co)
    covered = np.zeros(rs.n_exercises, dtype=bool)
    covered[ex] = True
    if not covered.all():
        missing = [rs.exercise_keys[i] for i in np.flatnonzero(~covered)[:5]]
        raise ValueError(
            f"{int((~covered).sum())} exercises have no concept in the Q-matrix "
            f"(first missing: {missing})"
        )
    n_concepts = len(concept_index)
    pairs = distinct_ids(ex * n_concepts + co)  # deduplicated, sorted by (ex, co)
    return QMatrix(
        pairs // n_concepts,
        pairs % n_concepts,
        rs.n_exercises,
        n_concepts,
        tuple(concept_index),
    )


def filter_min_interactions(rs: ResponseSet, min_count: int) -> ResponseSet:
    """Drop students with record count <= min_count (strictly-above rule).

    Surviving students and exercises are re-densified to contiguous indices,
    preserving their relative order; exercises left with zero records vanish.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    counts = rs.student_counts()
    kept_students = np.flatnonzero(counts > min_count)
    if len(kept_students) == 0:
        raise ValueError(f"no students with more than {min_count} interactions")

    keep = counts[rs.students] > min_count
    students = rs.students[keep]
    exercises = rs.exercises[keep]
    scores = rs.scores[keep]

    kept_exercises = np.flatnonzero(np.bincount(exercises, minlength=rs.n_exercises) > 0)
    s_remap = np.full(rs.n_students, -1, dtype=np.intp)
    s_remap[kept_students] = np.arange(len(kept_students))
    e_remap = np.full(rs.n_exercises, -1, dtype=np.intp)
    e_remap[kept_exercises] = np.arange(len(kept_exercises))

    return ResponseSet(
        s_remap[students],
        e_remap[exercises],
        scores,
        len(kept_students),
        len(kept_exercises),
        tuple(rs.student_keys[i] for i in kept_students),
        tuple(rs.exercise_keys[i] for i in kept_exercises),
    )


def split_train_test(
    rs: ResponseSet, train_ratio: float, seed: int
) -> tuple[ResponseSet, ResponseSet]:
    """Per-student split: floor(c * (1 - train_ratio)) records go to test.

    Test records are chosen uniformly without replacement from each student's
    records via one seeded generator (students visited in ascending index
    order), so the partition is reproducible. Every student keeps at least
    one train record; students with fewer than 2 records fall back to
    all-train and are counted in a warning.
    """
    if not 0.0 < train_ratio < 1.0:
        raise ValueError("train_ratio must lie in (0, 1)")
    if len(rs) == 0:
        raise ValueError("cannot split an empty response set")

    rng = np.random.default_rng(seed)
    order = np.lexsort((rs.exercises, rs.students))
    boundaries = np.flatnonzero(np.diff(rs.students[order])) + 1
    groups = np.split(order, boundaries)

    test_mask = np.zeros(len(rs), dtype=bool)
    fallbacks = 0
    for group in groups:
        c = len(group)
        n_test = math.floor(c * (1.0 - train_ratio))
        if c < 2:
            fallbacks += 1  # their test share c*(1-ratio) > 0 always floors to 0
            continue
        n_test = min(n_test, c - 1)
        if n_test == 0:
            continue
        chosen = rng.choice(group, size=n_test, replace=False)
        test_mask[chosen] = True

    if fallbacks:
        log.warning("%d students had <2 records; kept all their records in train", fallbacks)
    return rs.replace_records(~test_mask), rs.replace_records(test_mask)


def dataset_stats(rs: ResponseSet, q: QMatrix) -> DatasetStats:
    """Counts, interactions per student, and interaction density."""
    if len(rs) == 0 or rs.n_students == 0:
        raise ValueError("stats need at least one record")
    n = len(rs)
    return DatasetStats(
        n_students=rs.n_students,
        n_exercises=rs.n_exercises,
        n_concepts=q.n_concepts,
        n_interactions=n,
        interactions_per_student=n / rs.n_students,
        density=n / (rs.n_students * rs.n_exercises),
    )
