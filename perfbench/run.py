"""scdkit benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload scd-steps-M --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout. Inputs come from `synth.make_synthetic`
with the given seed, generated in a child process; the workload then runs in
a second child process with BLAS and OpenMP pinned to one thread, so that
neither the generation time nor its memory lands in the figures. The load is
a closed loop: one client in one process, each operation starting when the
previous one ended.

With `--trace 0` the run reports every end-to-end metric; with
`--trace 1` it alternates plain and traced operations over its window and
reports the per-layer split and the tracing overhead (see README.md). Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only when every output check passed.
Results and spans are kept under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from specs import END_TO_END, PER_LAYER, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GEN_TIMEOUT_S = 120
RUN_SLACK_S = 120  # set-up, warm-up and the last operation of the window


def child_env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update((var, "1") for var in THREAD_VARS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(args: list[str], timeout: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {args[0]} exited with {proc.returncode}")


def print_report(result: dict, trace: int) -> None:
    env = result["environment"]
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
        f"nproc {env['nproc']} (affinity {env['affinity_cpus']}), threads {env['threads']}"
    )
    print(f"sizes: {json.dumps(result['sizes'])}")
    table = PER_LAYER if trace else END_TO_END
    for name, metric in result["metrics"].items():
        n = result["samples"].get(name)
        better = table[name][1]
        tail = f"  (n={n})" if n else ""
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']:<8} {better} is better{tail}")
    for name, value in result["info"].items():
        print(f"  {name:<32} {value:>14.6g}  (not gated: see README.md)")
    if result["quality"]:
        print("quality (mean over the trainings): " + ", ".join(
            f"{k} {v:.6g}" for k, v in result["quality"].items()))
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate: {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
    for err in result["errors"]:
        print(f"error: {err}")
    if result["absent"]:
        print(f"absent spans (names scdkit no longer has): {', '.join(result['absent'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, to test the harness")
    a = ap.parse_args()

    if not (ROOT / "src" / "scdkit" / "__init__.py").is_file():
        print(f"perfbench: no scdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}{'-smoke' if a.smoke else ''}"
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / "work" / f"{tag}-{os.getpid()}"
    result_path = out_dir / "results" / f"{tag}.json"
    spans_path = out_dir / "traces" / f"{tag}.jsonl"
    for d in (workdir, result_path.parent, spans_path.parent):
        d.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    smoke = ["--smoke"] if a.smoke else []
    try:
        worker(["gen", a.workload, str(a.seed), str(workdir), *smoke], GEN_TIMEOUT_S)
        worker(
            ["run", a.workload, str(a.seed), str(workdir), str(a.seconds), str(a.trace),
             str(result_path), str(spans_path), *smoke],
            a.seconds + RUN_SLACK_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(result_path.read_text())
    result.update(workload=a.workload, seed=a.seed, seconds=a.seconds, trace=a.trace)
    result_path.write_text(json.dumps(result, indent=1))
    print_report(result, a.trace)
    print(f"result: {result_path.relative_to(ROOT)}" + (
        f", spans: {spans_path.relative_to(ROOT)}" if a.trace else ""))
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
