"""The reports of the reference fits against the checked-in reference.

`fixtures/reference_reports.json` is written by
`fixtures/make_reference_reports.py`; read that script for what it holds.
Floats agree within the reference losses' RTOL; ids, labels, counts, flags,
mask digests and the null of an empty bucket agree exactly.
"""

import json

import numpy as np

from fixtures.make_reference_reports import PATH, reference_reports
from test_reference_losses import RTOL


def mismatches(got, want, where: str) -> list[str]:
    """Where `got` differs from `want`, two JSON values, one line each."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, float):
        if np.isclose(got, want, rtol=RTOL, atol=0.0):
            return []
        return [f"{where}: {got!r} != {want!r} (relative drift {abs(got - want) / abs(want):.2e})"]
    if isinstance(want, list) and len(got) == len(want):
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, dict) and got.keys() == want.keys():
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def test_reports_match_checked_in_reference(tmp_path):
    want = json.loads(PATH.read_text())["fits"]
    got = json.loads(json.dumps(reference_reports(tmp_path)))
    bad = mismatches(got, want, "fits")
    assert not bad, "\n".join(bad)
