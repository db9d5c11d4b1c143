"""Write reference_losses.json, the losses that pin what the model computes.

    PYTHONPATH=src python tests/fixtures/make_reference_losses.py

The file holds the train_log.csv rows of a 6-epoch default `fit` on
`make_synthetic(200, 50, 10, seed=0)` in every training mode, the loss
breakdowns of the first 8 default-config training steps on
`make_synthetic(5000, 300, 30, seed=0)`, and the state right after the 8th
step's Adam update: the step count and, for each parameter and each Adam
moment, the statistics of `array_stats`. The numpy version and the commit
that wrote them come with them. `tests/test_reference_losses.py` recomputes them and
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
ENTRIES = 16


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


def array_stats(a: np.ndarray) -> dict:
    """The sum, the sum of squares and the largest absolute value of `a`, and
    its ENTRIES entries at evenly spaced flat indices, with those indices."""
    flat = a.ravel()
    indices = np.linspace(0, flat.size - 1, ENTRIES).astype(int)
    return {
        "sum": float(flat.sum()),
        "sum_sq": float((flat * flat).sum()),
        "max_abs": float(np.abs(flat).max()),
        "indices": indices.tolist(),
        "entries": flat[indices].tolist(),
    }


def m_steps(workdir: Path) -> tuple[list[list[float]], dict]:
    """The first M_STEPS step breakdowns of a default fit (step, then
    COLUMNS), and the state right after the last step's Adam update.

    Each breakdown is read off `total_loss`, and the state off `adam_step`,
    as `_train_step` calls them; the fit stops after that update.
    """
    responses, qmatrix = _write_data(workdir / "data-m", M_DATA)
    total_loss, adam_step = trainkit.total_loss, trainkit.adam_step
    rows: list[list[float]] = []
    state: dict = {}

    def recording_total_loss(*args, **kwargs):
        total, b = total_loss(*args, **kwargs)
        rows.append([len(rows) + 1, b.main, b.ssl_student, b.ssl_exercise, b.reg, b.total])
        return total, b

    def recording_adam_step(params, grads, opt, config):
        adam_step(params, grads, opt, config)
        if len(rows) == M_STEPS:
            state["step"] = opt.step
            for group, arrays in (("params", params), ("adam_m", opt.m), ("adam_v", opt.v)):
                state[group] = {name: array_stats(a) for name, a in arrays.items()}
            raise _StepsDone

    trainkit.total_loss, trainkit.adam_step = recording_total_loss, recording_adam_step
    try:
        fit(TrainConfig(), responses, qmatrix, workdir / "m-steps")
    except _StepsDone:
        pass
    finally:
        trainkit.total_loss, trainkit.adam_step = total_loss, adam_step
    return rows, state


def reference_runs(workdir) -> tuple[dict[str, list[list[float]]], dict]:
    """Every run of the reference, by name (each mode's S fit and the M
    steps), and the M steps' state after their last update."""
    workdir = Path(workdir)
    runs = {mode: s_fit_rows(workdir, mode) for mode in MODES}
    runs["m-steps"], m_step_state = m_steps(workdir)
    return runs, m_step_state


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
        runs, m_step_state = reference_runs(tmp)
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
        "m_step_state": m_step_state,
    }
    write_json(PATH, reference)


if __name__ == "__main__":
    main()
