"""Smoke test of the benchmark harness at tiny scale (about half a minute).

    python3 -m pytest perfbench

It runs every workload untraced and traced with `--smoke`, and checks the
output format, that every metric is reported and none reads 0, that
BENCHMARK.json names what the harness reports, that set-up spans come from
scdkit's own entry points, that traced step spans
never overlap, that a renamed scdkit function is reported
as absent, and that the harness refuses to run without the scdkit sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from specs import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracing import Rebinder, Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        k: unit for k, (unit, _) in table.items()
    }
    # every workload enters every layer, so no figure reads 0
    assert all(v["value"] > 0 for k, v in last["metrics"].items() if k != "trace.overhead_pct")
    if not trace:
        return
    spans = [
        json.loads(line)
        for line in (ROOT / ".perfbench/traces" / f"{workload}-seed3-trace1-smoke.jsonl")
        .read_text()
        .splitlines()
    ]
    children = defaultdict(float)
    for s in spans:
        children[s["parent"]] += s["end"] - s["start"]
    steps = [s for s in spans if s["name"] == "op.step"]
    assert steps and any(s["name"] == "op.score" for s in spans)
    # set-up spans come from fit and evaluate_checkpoint themselves
    names = {s["id"]: s["name"] for s in spans}
    for setup, first_call in (("op.setup", "corpus.load"),
                              ("op.eval_setup", "scdmodel.load_checkpoint")):
        assert any(s["name"] == first_call and names[s["parent"]] == setup for s in spans)
    for s in steps:  # child spans never cover more than their step
        assert children[s["id"]] <= s["end"] - s["start"] + 1e-9
    wall = last["metrics"].get("trainkit.step_wall_ms", {}).get("value", 0.0)
    self_ms = last["metrics"]["trainkit.step_self_ms"]["value"]
    covered = sum(children[s["id"]] for s in steps) * 1e3 / max(len(steps), 1)
    assert wall == pytest.approx(covered + self_ms, abs=1e-6)


def test_renamed_functions_are_reported_absent():
    empty = types.SimpleNamespace(__name__="gone")
    tracer = Tracer("t")
    tracer.install(Rebinder(), empty, empty, empty)
    assert "gone.adam_step" in tracer.absent and "gone.student_table" in tracer.absent
    assert "scdkit.diffcore.DiffNode.backward" in tracer.absent
    assert set(tracer.layer_metrics(0.0)) == set(PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scd-steps-M", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
