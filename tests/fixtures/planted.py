"""Score trained models against the planted truth of the synthetic generator.

    PYTHONPATH=src:tests python tests/fixtures/planted.py OUTPUT.json

`make_synthetic` draws each response as correct when the pair's margin (the
mean of planted mastery minus difficulty over the exercise's concepts)
survives Gaussian noise, so each (student, exercise) pair has a known chance
of a correct answer, P = Phi(margin / noise). Scoring every pair against P
instead of against 1-2 sampled test records removes the sampling noise that
acc50 carries.

Per run, over every (student, exercise) pair of the checkpoint's universe:
- `eacc`: the expected accuracy of the predictions, P where the prediction
  is at or above evalkit's 0.5 threshold and 1 - P elsewhere; `eacc50` the
  same over the bottom half of students by train interactions (ties by id,
  as `evalkit.tail_metrics` ranks them);
- `mae` and `mae50`: the mean |prediction - P|;
- `bayes` and `bayes50`: the ceiling a predictor that knew P would reach,
  the mean max(P, 1 - P);
- `acc` and `acc50` of the run's own `evaluate_checkpoint` report.

`main` fits the c09 acceptance config in the three training modes on
`make_synthetic(seed=d, noise=0.10)` for data seeds 0-5 and training seeds
0-2 (54 fits), and writes one JSON file: the per-run figures, per-mode
medians and quartiles, the paired differences by (data, training) seed, the
numpy version and the commit. It gates nothing.
"""

from __future__ import annotations

import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from fixtures.make_reference_losses import commit, write_json
from scdkit.evalkit import PASS_THRESHOLD, evaluate_checkpoint, infer
from scdkit.relgraph import directed_split
from scdkit.scdmodel import load_checkpoint, predict
from scdkit.synth import SyntheticData, make_synthetic, write_synthetic
from scdkit.trainkit import MODES, TrainConfig, fit

NOISE = 0.10
DATA_SEEDS = range(6)
TRAIN_SEEDS = range(3)
# the config of acceptance criteria c09 and c10 (tests/test_acceptance.py)
C09 = dict(epochs=50, min_interactions=1, train_ratio=0.5, learning_rate=0.01, lambda1=2.0, tau=1.0)
FIGURES = ("eacc", "eacc50", "mae", "mae50", "bayes", "bayes50", "acc", "acc50")
# (arm, baseline): each arm against supervised-only, as c09 compares them,
# and scd against scd-random, as c10 does
PAIRS = (("scd", "supervised-only"), ("scd-random", "supervised-only"), ("scd", "scd-random"))

_erf = np.frompyfunc(math.erf, 1, 1)


def p_correct(data: SyntheticData, noise: float) -> np.ndarray:
    """The students x exercises matrix of each pair's chance of a correct
    answer, Phi(margin / noise), from the planted mastery and difficulty and
    the Q-matrix (keys `e<j>`, `c<k>`). The generator does not keep its
    noise, so the caller passes it."""
    q = np.zeros(data.difficulty.shape)
    for exercise, concept in data.qmatrix:
        q[int(exercise[1:]), int(concept[1:])] = 1.0
    margin = (data.mastery @ q.T - (data.difficulty * q).sum(axis=1)) / q.sum(axis=1)
    return 0.5 * (1.0 + _erf(margin / (noise * math.sqrt(2.0))).astype(np.float64))


def run_figures(p_hat: np.ndarray, p_true: np.ndarray, train_counts: np.ndarray) -> dict:
    """eacc, eacc50, mae, mae50, bayes and bayes50 of the students x exercises
    predictions `p_hat` against the chances `p_true`; student i has
    `train_counts[i]` train interactions."""
    n = len(train_counts)
    tail = np.lexsort((np.arange(n), train_counts))[: n // 2]
    per_pair = {
        "eacc": np.where(p_hat >= PASS_THRESHOLD, p_true, 1.0 - p_true),
        "mae": np.abs(p_hat - p_true),
        "bayes": np.maximum(p_true, 1.0 - p_true),
    }
    figures = {}
    for name, values in per_pair.items():
        figures[name] = float(values.mean())
        figures[f"{name}50"] = float(values[tail].mean())
    return figures


def score_checkpoint(checkpoint_path, data: SyntheticData, noise: float) -> dict:
    """`run_figures` of a checkpoint trained on `data`: every pair of its
    students and exercises predicted by `evalkit.infer` and
    `scdmodel.predict`, its ids mapped to the generator's through its key
    maps (`s<i>`, `e<j>`), and train interactions read off its graph."""
    ckpt = load_checkpoint(checkpoint_path, optimizer=False)
    split = directed_split(ckpt.graph)
    students = np.array([int(key[1:]) for key in ckpt.student_keys])
    exercises = np.array([int(key[1:]) for key in ckpt.exercise_keys])
    m, n = len(students), len(exercises)
    diag, nodes = infer(ckpt.params, split)
    y = predict(diag, nodes, split, np.repeat(np.arange(m), n), np.tile(np.arange(n), m))
    p_true = p_correct(data, noise)[np.ix_(students, exercises)]
    return run_figures(y.value.reshape(m, n), p_true, split.e2s.indegrees())


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def grid(workdir: Path) -> list[dict]:
    """One record per fit of the grid: its seeds, mode and figures."""
    runs = []
    for data_seed in DATA_SEEDS:
        data = make_synthetic(seed=data_seed, noise=NOISE)
        responses, qmatrix = write_synthetic(workdir / f"data{data_seed}", data)
        for train_seed in TRAIN_SEEDS:
            for mode in MODES:
                out = workdir / f"{mode}-{data_seed}-{train_seed}"
                config = TrainConfig(mode=mode, master_seed=train_seed, **C09)
                result = fit(config, responses, qmatrix, out)
                report = evaluate_checkpoint(result.checkpoint_path, result.test_path)
                figures = score_checkpoint(result.checkpoint_path, data, NOISE)
                figures.update(acc=report.acc, acc50=report.acc50)
                runs.append(dict(data_seed=data_seed, train_seed=train_seed, mode=mode, **figures))
                print(f"data {data_seed} train {train_seed} {mode}: {figures}", file=sys.stderr)
    return runs


def summary(runs: list[dict]) -> tuple[dict, dict]:
    """Per-mode quartiles of every figure, and per (arm, baseline) pair the
    differences of every figure by (data, training) seed, their quartiles,
    and how many pairs meet c09's condition (the arm's acc at least 0.75 and
    its acc50 above the baseline's) and c10's (acc50 at least the
    baseline's)."""
    by_key = {(r["mode"], r["data_seed"], r["train_seed"]): r for r in runs}
    seeds = sorted({(r["data_seed"], r["train_seed"]) for r in runs})
    modes = {
        mode: {f: quartiles([by_key[(mode, *s)][f] for s in seeds]) for f in FIGURES}
        for mode in MODES
    }
    paired = {}
    for arm, base in PAIRS:
        a, b = [by_key[(arm, *s)] for s in seeds], [by_key[(base, *s)] for s in seeds]
        pairs = list(zip(a, b))
        diffs = {f: [x[f] - y[f] for x, y in pairs] for f in FIGURES}
        paired[f"{arm} - {base}"] = {
            "seeds": [list(s) for s in seeds],
            "differences": diffs,
            "quartiles": {f: quartiles(d) for f, d in diffs.items()},
            "c09_condition": sum(x["acc"] >= 0.75 and x["acc50"] > y["acc50"] for x, y in pairs),
            "c10_condition": sum(x["acc50"] >= y["acc50"] for x, y in pairs),
            "pairs": len(seeds),
        }
    return modes, paired


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: planted.py OUTPUT.json")
    with tempfile.TemporaryDirectory() as tmp:
        runs = grid(Path(tmp))
    modes, paired = summary(runs)
    write_json(
        Path(argv[0]),
        {
            "written_by": "tests/fixtures/planted.py",
            "commit": commit(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "data": f"make_synthetic(seed=<data_seed>, noise={NOISE})",
            "config": C09,
            "modes": modes,
            "paired": paired,
            "runs": runs,
        },
    )


if __name__ == "__main__":
    main()
