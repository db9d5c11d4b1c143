"""`fixtures/planted.py`, the script that scores trained models against the
generator's planted truth, on a case solved by hand."""

import numpy as np
import pytest

from fixtures.planted import p_correct, run_figures
from scdkit.synth import SyntheticData

PHI_1 = 0.8413447460685429  # Phi(1); Phi(-1) = 1 - PHI_1
PHI_HALF = 0.6914624612740131  # Phi(0.5)


def test_p_correct_and_the_tail_figures_by_hand():
    # 3 students, 2 exercises: e0 tests c0, e1 tests c0 and c1; noise 0.1
    data = SyntheticData(
        responses=[],
        qmatrix=[("e0", "c0"), ("e1", "c0"), ("e1", "c1")],
        mastery=np.array([[0.6, 0.5], [0.4, 0.5], [0.5, 0.7]]),
        difficulty=np.array([[0.5, 0.9], [0.6, 0.5]]),
    )
    # margins: s0 (0.1, 0), s1 (-0.1, -0.1), s2 (0, 0.05); d[e0, c1] is not read
    p_true = p_correct(data, 0.1)
    want = [[PHI_1, 0.5], [1 - PHI_1, 1 - PHI_1], [0.5, PHI_HALF]]
    np.testing.assert_allclose(p_true, want, rtol=1e-12)

    # s0's prediction for e0 is exactly 0.5, and counts as a correct answer
    p_hat = np.array([[0.5, 0.2], [0.9, 0.3], [0.7, 0.6]])
    # s0 and s2 have 1 train interaction, s1 has 3: the tail half (1 of 3
    # students) is s0, the lower id of the tie
    figures = run_figures(p_hat, p_true, np.array([1, 3, 1]))
    expected = [[PHI_1, 0.5], [1 - PHI_1, PHI_1], [0.5, PHI_HALF]]
    errors = [[PHI_1 - 0.5, 0.3], [0.9 - (1 - PHI_1), 0.3 - (1 - PHI_1)], [0.2, PHI_HALF - 0.6]]
    bayes = [[PHI_1, 0.5], [PHI_1, PHI_1], [0.5, PHI_HALF]]
    assert figures == pytest.approx(
        {
            "eacc": np.mean(expected),
            "eacc50": (PHI_1 + 0.5) / 2,
            "mae": np.mean(errors),
            "mae50": (PHI_1 - 0.5 + 0.3) / 2,
            "bayes": np.mean(bayes),
            "bayes50": (PHI_1 + 0.5) / 2,
        },
        rel=1e-12,
    )
