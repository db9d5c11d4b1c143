"""What a run imports: no `numpy.ma`. scdkit never makes a masked array, and
on numpy 2 importing the module costs about 1 MB of resident memory (a plain
`np.unique` would import it; `corpus.distinct_ids` does not). The run is made
in a fresh interpreter, so no other test's imports are counted."""

import json
import os
import subprocess
import sys
from pathlib import Path

RUN = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
from scdkit import cli, evalkit, synth, trainkit
from scdkit.scdmodel import load_checkpoint

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    rp, qp = synth.write_synthetic(tmp / "data", synth.make_synthetic(30, 15, 5, seed=3))
    trainkit.fit(trainkit.TrainConfig(epochs=2), rp, qp, tmp / "run")
    ckpt_path, test_path = tmp / "run" / "checkpoint.npz", tmp / "run" / "test.csv"
    evalkit.evaluate_checkpoint(ckpt_path, test_path)
    ckpt = load_checkpoint(ckpt_path)
    evalkit.case_study(ckpt, ckpt.student_keys[:2], ckpt.exercise_keys[:2])
    data = ["--responses", str(rp), "--qmatrix", str(qp)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["stats", *data]), cli.main(["viewgen-audit", "--draws", "10", *data])]
masked = sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
print(json.dumps({"codes": codes, "numpy.ma": masked}))
"""


def test_a_run_never_imports_numpy_ma():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "numpy.ma": []}
