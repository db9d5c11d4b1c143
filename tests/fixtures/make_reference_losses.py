"""Write reference_losses.json, the losses that pin what the model computes.

    PYTHONPATH=src python tests/fixtures/make_reference_losses.py

The file holds the train_log.csv rows of a 6-epoch default `fit` on
`make_synthetic(200, 50, 10, seed=0)` in every training mode, and the loss
breakdowns of the first 8 default-config training steps on
`make_synthetic(5000, 300, 30, seed=0)`, with the numpy version and the
commit that wrote them. `tests/test_reference_losses.py` recomputes them and
compares within a relative tolerance. Write the file again only for a change
that moves results by design, and give the old and new values with it.
"""

from __future__ import annotations

import csv
import json
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from scdkit import trainkit
from scdkit.synth import make_synthetic, write_synthetic
from scdkit.trainkit import MODES, TrainConfig, fit

PATH = Path(__file__).with_name("reference_losses.json")
COLUMNS = ["main", "ssl_s", "ssl_e", "reg", "total"]
S_DATA, S_EPOCHS = (200, 50, 10), 6
M_DATA, M_STEPS = (5000, 300, 30), 8


def _write_data(workdir: Path, counts) -> tuple[Path, Path]:
    return write_synthetic(workdir, make_synthetic(*counts, seed=0))


def s_fit_rows(workdir: Path, mode: str) -> list[list[float]]:
    """The train_log.csv rows of a default fit in `mode`: epoch, then COLUMNS."""
    responses, qmatrix = _write_data(workdir / "data", S_DATA)
    result = fit(TrainConfig(epochs=S_EPOCHS, mode=mode), responses, qmatrix, workdir / mode)
    with open(result.log_path, newline="") as fh:
        return [[int(row[0]), *map(float, row[1:])] for row in list(csv.reader(fh))[1:]]


class _StepsDone(Exception):
    pass


def m_step_rows(workdir: Path) -> list[list[float]]:
    """The first M_STEPS step breakdowns of a default fit: step, then COLUMNS.

    Each is read off `total_loss` as `train_epoch` calls it; the fit stops
    after the last one.
    """
    responses, qmatrix = _write_data(workdir / "data-m", M_DATA)
    total_loss = trainkit.total_loss
    rows: list[list[float]] = []

    def recording_total_loss(*args, **kwargs):
        total, b = total_loss(*args, **kwargs)
        rows.append([len(rows) + 1, b.main, b.ssl_student, b.ssl_exercise, b.reg, b.total])
        if len(rows) == M_STEPS:
            raise _StepsDone
        return total, b

    trainkit.total_loss = recording_total_loss
    try:
        fit(TrainConfig(), responses, qmatrix, workdir / "m-steps")
    except _StepsDone:
        pass
    finally:
        trainkit.total_loss = total_loss
    return rows


def reference_runs(workdir) -> dict[str, list[list[float]]]:
    """Every run of the reference, by name: each mode's S fit and the M steps."""
    workdir = Path(workdir)
    runs = {mode: s_fit_rows(workdir, mode) for mode in MODES}
    runs["m-steps"] = m_step_rows(workdir)
    return runs


def commit() -> str:
    """The checked-out commit, marked -dirty when the tree has changes."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=PATH.parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def write_json(path: Path, content: dict) -> None:
    """`content` as indented JSON with each innermost list on one line."""
    text = re.sub(
        r"\[\s+([^\[\]]*?)\s+\]",
        lambda m: "[" + " ".join(m.group(1).split()) + "]",
        json.dumps(content, indent=1, allow_nan=False),
    )
    path.write_text(text + "\n")
    print(f"wrote {path} at {content['commit']}", file=sys.stderr)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = reference_runs(tmp)
    reference = {
        "written_by": "tests/fixtures/make_reference_losses.py",
        "commit": commit(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "s_fits": "make_synthetic(%d, %d, %d, seed=0), " % S_DATA
        + f"TrainConfig(epochs={S_EPOCHS}, mode=<run name>)",
        "m_steps": "make_synthetic(%d, %d, %d, seed=0), " % M_DATA
        + f"TrainConfig(), the first {M_STEPS} steps",
        "columns": ["epoch or step", *COLUMNS],
        "runs": runs,
    }
    write_json(PATH, reference)


if __name__ == "__main__":
    main()
