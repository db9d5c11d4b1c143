"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload scd-steps-M --seeds 0-9 [--trace 0]
        [--baseline perfbench/baseline.json]

Each seed is one `run.py` invocation with the run length of BENCHMARK.json.
For every metric it prints the median and the
interquartile distance as a share of the median (the quartiles of
`statistics.quantiles(values, n=4)`), next to a third of the metric's bound,
the level under which the benchmark counts as steady. With --baseline the
figures are merged into that JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", type=Path)
    a = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    walls, failures = [], 0
    for seed in a.seeds:
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(a.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        walls.append(time.perf_counter() - t)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    print(f"\n{a.workload} trace={a.trace} seconds={seconds} runs={len(walls)} "
          f"failed={failures} wall median {statistics.median(walls):.1f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"  bound/3 {bound / 3:.4f} {'steady' if spread < bound / 3 else 'NOT STEADY'}")
        print(f"  {name:<32} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}{verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}

    if a.baseline:
        data = json.loads(a.baseline.read_text()) if a.baseline.exists() else {}
        key = a.workload if a.trace == 0 else f"{a.workload}/trace"
        data[key] = {"seeds": a.seeds, "seconds": seconds, "failed_runs": failures,
                     "wall_s_median": statistics.median(walls), "metrics": summary}
        a.baseline.write_text(json.dumps(data, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
