"""Write reference_reports.json, the reports that pin what a trained model says.

    PYTHONPATH=src:tests python tests/fixtures/make_reference_reports.py

For each S fit of make_reference_losses.py (a 6-epoch default `fit` on
`make_synthetic(200, 50, 10, seed=0)`, one per training mode) the file holds:
- the `evaluate_checkpoint` report of its checkpoint on its test.csv: acc,
  rmse, acc50, rmse50, every `per_group` row (an empty bucket's metrics as
  null) and every `per_student` row;
- the `case_study` tables for the checkpoint's first two students and first
  two exercises, scored against that test.csv, and those for the student and
  exercise of test.csv's first record, whose one consistency flag is thus
  pinned;
- `retention_table` of its train graph at the default k, theta and p_min of
  `TrainConfig()`, 50 draws from `np.random.default_rng(0)`;
- the checkpoint's final parameters and both Adam moments, each array whole,
  and the Adam step;
- per epoch, each of its two views' kept e2s and s2e edge counts and the
  sha256 of `np.packbits` of each mask, as `trainkit._epoch_views` draws
  them (null for supervised-only, which draws none).

The `scd` fit also holds the report of its parameters with `w_predict` and
`b_predict` set to zero, under which every prediction is exactly 0.5 (the
script asserts it): the report then reads the threshold itself, so a
prediction at 0.5 counted as wrong moves every accuracy.

`tests/test_reference_reports.py` recomputes them and compares floats within
the reference losses' relative tolerance, and ids, counts, flags and digests
exactly.
Write the file again only for a change that moves results by design, and
give the old and new values with it.
"""

from __future__ import annotations

import csv
import hashlib
import platform
import tempfile
from pathlib import Path

import numpy as np

from fixtures.make_reference_losses import S_DATA, S_EPOCHS, _write_data, commit, write_json
from scdkit.corpus import load_responses
from scdkit.evalkit import align_responses, case_study, evaluate, evaluate_checkpoint, infer
from scdkit.relgraph import directed_split
from scdkit.scdmodel import ModelParams, load_checkpoint, predict
from scdkit.trainkit import MODES, TrainConfig, _epoch_views, fit
from scdkit.viewgen import View, retention_table

PATH = Path(__file__).with_name("reference_reports.json")
RETENTION_DRAWS = 50
COLUMNS = {
    "per_group": ["bucket", "n_students", "n_interactions", "acc", "rmse"],
    "per_student": ["student", "n_train", "acc", "rmse"],
    "outcomes": ["student", "exercise", "score", "consistent"],
    "retention": ["degree", "importance", "retention_p", "empirical"],
    "views": ["kept_e2s", "e2s_sha256", "kept_s2e", "s2e_sha256"],
}


def _finite_or_none(x: float) -> float | None:
    return x if np.isfinite(x) else None


def _view_rows(views: View) -> list[list]:
    """Per view of a stacked pair: its kept e2s and s2e counts and the sha256
    of each mask's packed bits."""
    return [
        [
            value
            for mask in (e2s, s2e)
            for value in (int(mask.sum()), hashlib.sha256(np.packbits(mask)).hexdigest())
        ]
        for e2s, s2e in zip(views.kept_e2s, views.kept_s2e)
    ]


def _report_rows(report) -> dict:
    return {
        "acc": report.acc,
        "rmse": report.rmse,
        "acc50": report.acc50,
        "rmse50": report.rmse50,
        "per_group": [
            [g.label, g.n_students, g.n_interactions, *map(_finite_or_none, (g.acc, g.rmse))]
            for g in report.per_group
        ],
        "per_student": [list(row) for row in report.per_student],
    }


def _case_study_rows(study) -> dict:
    return {
        "students": study.student_labels,
        "exercises": study.exercise_labels,
        "concepts": study.concept_labels,
        "exercise_concepts": [list(study.exercise_concepts[e]) for e in study.exercise_ids],
        "mastery": study.mastery.tolist(),
        "difficulty": study.difficulty.tolist(),
        "outcomes": [
            [s, e, score, study.consistent(s, e)]
            for (s, e), score in sorted(study.scores.items())
        ],
    }


def _first_record(test_path: Path) -> tuple[str, str]:
    """The student and exercise of a responses file's first record."""
    with open(test_path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)  # the header
        student, exercise, _ = next(rows)
    return student, exercise


def _report_at_one_half(ckpt, split, test_set) -> dict:
    """The report of `ckpt` with a zero prediction head, under which every
    prediction is exactly 0.5."""
    params = ModelParams(ckpt.params)
    for name in ("w_predict", "b_predict"):
        params[name] = np.zeros_like(params[name])
    diag, nodes = infer(params, split)
    preds = predict(diag, nodes, split, test_set.students, test_set.exercises).value
    assert (preds == 0.5).all(), "a zero prediction head must predict exactly 0.5"
    return _report_rows(evaluate(params, split, test_set))


def s_fit_reports(workdir: Path, mode: str) -> dict:
    """The report, case studies, retention table, final state and view masks
    of the S fit in `mode`, and for `scd` the report at a zero prediction head."""
    responses, qmatrix = _write_data(workdir / "data", S_DATA)
    result = fit(TrainConfig(epochs=S_EPOCHS, mode=mode), responses, qmatrix, workdir / mode)
    report = evaluate_checkpoint(result.checkpoint_path, result.test_path)
    ckpt = load_checkpoint(result.checkpoint_path)
    test_set = align_responses(
        load_responses(result.test_path), ckpt.student_keys, ckpt.exercise_keys
    )
    study = case_study(ckpt, ckpt.student_keys[:2], ckpt.exercise_keys[:2], test_set)
    student, exercise = _first_record(result.test_path)
    shared = case_study(ckpt, [student], [exercise], test_set)
    assert len(shared.scores) == 1, "the first record's pair must have its score"
    split = directed_split(ckpt.graph)
    retention = retention_table(split, TrainConfig(), RETENTION_DRAWS, np.random.default_rng(0))
    epoch_views = [_epoch_views(split, result.config, e) for e in range(1, S_EPOCHS + 1)]
    reports = {
        "report": _report_rows(report),
        "case_study": _case_study_rows(study),
        "first_record_case_study": _case_study_rows(shared),
        "retention": [[row[c] for c in COLUMNS["retention"]] for row in retention],
        "params": {name: arr.tolist() for name, arr in ckpt.params.items()},
        "adam": {
            "step": ckpt.opt.step,
            "m": {name: arr.tolist() for name, arr in ckpt.opt.m.items()},
            "v": {name: arr.tolist() for name, arr in ckpt.opt.v.items()},
        },
        "views": None if epoch_views[0] is None else [_view_rows(v) for v in epoch_views],
    }
    if mode == "scd":
        reports["report_at_one_half"] = _report_at_one_half(ckpt, split, test_set)
    return reports


def reference_reports(workdir) -> dict[str, dict]:
    """Every S fit's reports, by mode."""
    return {mode: s_fit_reports(Path(workdir), mode) for mode in MODES}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        fits = reference_reports(tmp)
    write_json(
        PATH,
        {
            "written_by": "tests/fixtures/make_reference_reports.py",
            "commit": commit(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "s_fits": "make_synthetic(%d, %d, %d, seed=0), " % S_DATA
            + f"TrainConfig(epochs={S_EPOCHS}, mode=<run name>)",
            "case_study": "the checkpoint's first two student and exercise keys, test.csv",
            "first_record_case_study": "the student and exercise of test.csv's first record",
            "report_at_one_half": "scd only: the report with w_predict and b_predict zero",
            "retention": f"TrainConfig(), {RETENTION_DRAWS} draws, np.random.default_rng(0)",
            "views": f"trainkit._epoch_views of epochs 1-{S_EPOCHS}, two rows per epoch",
            "columns": COLUMNS,
            "fits": fits,
        },
    )


if __name__ == "__main__":
    main()
