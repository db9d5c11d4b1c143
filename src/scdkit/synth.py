"""Synthetic response data with planted per-concept mastery.

Students get a latent mastery vector (shared ability plus per-concept
spread), exercises a difficulty vector; a response is correct when the mean
mastery-minus-difficulty margin over the exercise's concepts survives
Gaussian noise. Interaction counts are deliberately skewed: roughly half the
students answer only a handful of exercises, the rest follow a heavier
geometric tail, which is what the bottom-half metrics need to bite on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

TAIL_FRACTION = 0.5  # share of students who answer only 2-5 exercises


@dataclass(frozen=True)
class SyntheticData:
    responses: list[tuple[str, str, int]]  # (student key, exercise key, score)
    qmatrix: list[tuple[str, str]]  # (exercise key, concept key)
    mastery: np.ndarray  # (n_students, n_concepts) planted ground truth
    difficulty: np.ndarray  # (n_exercises, n_concepts)


def make_synthetic(
    n_students: int = 200,
    n_exercises: int = 50,
    n_concepts: int = 10,
    seed: int = 0,
    noise: float = 0.15,
) -> SyntheticData:
    if n_exercises < n_concepts:
        raise ValueError("need at least one exercise per concept")
    rng = np.random.default_rng(seed)

    # every concept is anchored by exercise index mod K, plus 0-2 extras
    q_pairs: list[tuple[int, int]] = []
    for e in range(n_exercises):
        concepts = {e % n_concepts}
        if rng.random() < 0.5:
            concepts.add(int(rng.integers(n_concepts)))
        if rng.random() < 0.15:
            concepts.add(int(rng.integers(n_concepts)))
        q_pairs += [(e, c) for c in sorted(concepts)]

    ability = rng.uniform(0.15, 0.85, n_students)
    mastery = np.clip(
        ability[:, None] + rng.uniform(-0.12, 0.12, (n_students, n_concepts)), 0.02, 0.98
    )
    base = rng.uniform(0.25, 0.75, n_exercises)
    difficulty = np.clip(
        base[:, None] + rng.uniform(-0.08, 0.08, (n_exercises, n_concepts)), 0.05, 0.95
    )

    concept_lists = [
        np.array([c for e2, c in q_pairs if e2 == e], dtype=np.intp) for e in range(n_exercises)
    ]

    n_tail = int(round(n_students * TAIL_FRACTION))
    responses: list[tuple[str, str, int]] = []
    for s in range(n_students):
        if s < n_tail:
            count = int(rng.integers(2, 6))
        else:
            count = min(6 + int(rng.geometric(0.12)), n_exercises)
        for e in rng.choice(n_exercises, size=count, replace=False):
            cs = concept_lists[e]
            margin = float(np.mean(mastery[s, cs] - difficulty[e, cs]))
            score = int(margin + rng.normal(0.0, noise) >= 0.0)
            responses.append((f"s{s}", f"e{e}", score))

    return SyntheticData(
        responses=responses,
        qmatrix=[(f"e{e}", f"c{c}") for e, c in q_pairs],
        mastery=mastery,
        difficulty=difficulty,
    )


def write_synthetic(directory, data: SyntheticData) -> tuple[Path, Path]:
    """Dump responses.csv and qmatrix.csv; returns both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    responses_path = directory / "responses.csv"
    qmatrix_path = directory / "qmatrix.csv"
    with open(responses_path, "w", encoding="utf-8") as fh:
        fh.write("student,exercise,score\n")
        fh.writelines(f"{s},{e},{t}\n" for s, e, t in data.responses)
    with open(qmatrix_path, "w", encoding="utf-8") as fh:
        fh.write("exercise,concept\n")
        fh.writelines(f"{e},{c}\n" for e, c in data.qmatrix)
    return responses_path, qmatrix_path
