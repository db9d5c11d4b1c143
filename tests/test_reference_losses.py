"""The losses of fixed training runs against the checked-in reference.

`fixtures/reference_losses.json` is written by
`fixtures/make_reference_losses.py`; read that script for the runs.

RTOL is 100 times the largest relative drift that a pure change of summation
order caused in the reference's values: 3.5e-16, with the edges of every
attention aggregate taken in reverse order. Summing the regularizer in
reverse parameter order drifted 2.3e-16, and the scatter-add of the
prediction's row gradients (then a row-gather node's backward) in reverse
row order 2.1e-16 (numpy 2.4.6, x86-64).
"""

import json

import numpy as np

from fixtures.make_reference_losses import COLUMNS, PATH, reference_runs

RTOL = 3.5e-14


def test_losses_match_checked_in_reference(tmp_path):
    reference = json.loads(PATH.read_text())["runs"]
    runs = reference_runs(tmp_path)
    assert runs.keys() == reference.keys()
    mismatches = []
    for name, rows in reference.items():
        got, want = np.array(runs[name]), np.array(rows)
        assert got.shape == want.shape, name
        assert np.array_equal(got[:, 0], want[:, 0]), name
        for col, column in enumerate(COLUMNS, start=1):
            bad = ~np.isclose(got[:, col], want[:, col], rtol=RTOL, atol=0.0)
            mismatches += [
                f"{name} row {int(want[i, 0])} {column}: "
                f"{float(got[i, col])!r} != {float(want[i, col])!r} "
                f"(relative drift {abs(got[i, col] - want[i, col]) / abs(want[i, col]):.2e})"
                for i in np.flatnonzero(bad)
            ]
    assert not mismatches, "\n".join(mismatches)
