"""Child-process side of the benchmark: input generation and one measured run.

    python3 perfbench/worker.py gen WORKLOAD SEED WORKDIR [--smoke]
    python3 perfbench/worker.py run WORKLOAD SEED WORKDIR SECONDS TRACE RESULT SPANS [--smoke]

`run.py` starts each command in a process of its own, so that generating the
inputs stays out of the run's timings and out of its peak RSS. `gen` writes
responses.csv and qmatrix.csv (plus, for steps workloads, a seeded untrained
checkpoint.npz and its test.csv, both written by `trainkit.fit`, to score)
into WORKDIR. `run` measures one workload on them through the entry points the CLI
uses, checks the outputs, and writes its figures as JSON to RESULT (and its
spans to SPANS when TRACE is 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from scdkit import diffcore, evalkit, relgraph, synth, trainkit
from scdkit.objectives import LossBreakdown
from scdkit.trainkit import TrainConfig
from specs import ACC_BAR, END_TO_END, PER_LAYER, THREAD_VARS, WORKLOADS
from tracing import Rebinder, SetupClock, SetupDone, StepClock, Tracer, WindowClosed


class CheckFailed(Exception):
    """An output of scdkit that the benchmark's checks reject."""


def datasets(spec, workdir: Path, smoke: bool) -> list[Path]:
    """One input directory per dataset: fit workloads train on several."""
    n = (1 if smoke else spec.quality_fits) if spec.kind == "fit" else 1
    return [workdir / f"data{k}" for k in range(n)]


def config_of(spec, seed: int) -> TrainConfig:
    return TrainConfig(**{"master_seed": seed, **spec.config})


# -- inputs ---------------------------------------------------------------


def generate(spec, seed: int, workdir: Path, smoke: bool) -> None:
    s = spec.smoke_scale if smoke else spec.scale
    dirs = datasets(spec, workdir, smoke)
    for k, d in enumerate(dirs):
        data = synth.make_synthetic(
            s.n_students, s.n_exercises, s.n_concepts, seed=seed * len(dirs) + k, noise=s.noise
        )
        synth.write_synthetic(d, data)
    if spec.kind != "steps":
        return
    # fit writes the checkpoint and test.csv; its one epoch leaves the seeded
    # initial parameters untouched
    rebinder = Rebinder()
    rebinder.wrap(trainkit, "train_epoch", lambda orig: untrained_epoch)
    try:
        d = dirs[0]
        config = replace(config_of(spec, seed), epochs=1)
        trainkit.fit(config, d / "responses.csv", d / "qmatrix.csv", d)
    finally:
        rebinder.restore()


def untrained_epoch(*args, **kwargs) -> LossBreakdown:
    return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def sizes_of(args: dict) -> dict:
    """Sizes of the graph and records that the first operation received."""
    split = args["split"]
    out = {f"{d}_edges": int(getattr(split, d).n_edges) for d in relgraph.DIRECTIONS}
    for key in ("train_set", "test_set"):
        if key in args:
            records = args[key]
            out["students"] = int(records.n_students)
            out["exercises"] = int(records.n_exercises)
            out[f"{key[:-4]}_records"] = len(records)
    return out


# -- checks -----------------------------------------------------------------


def check_report(report) -> tuple:
    """Every field of an eval report is finite and within [0, 1]."""
    fields = [report.acc, report.rmse, report.acc50, report.rmse50]
    fields += [v for g in report.per_group if g.n_students for v in (g.acc, g.rmse)]
    fields += [v for r in report.per_student for v in (r.acc, r.rmse)]
    values = np.asarray(fields, dtype=np.float64)
    if not (np.all(np.isfinite(values)) and np.all((values >= 0.0) & (values <= 1.0))):
        raise CheckFailed("eval report has a field that is not finite or outside [0, 1]")
    return (report.acc, report.rmse, report.acc50, report.rmse50)


def check_losses(losses: list[float]) -> None:
    bad = sum(not math.isfinite(x) for x in losses)
    if bad:
        raise CheckFailed(f"{bad} step losses are not finite")


# -- the measured run -------------------------------------------------------


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def records_in_step(j: int, n: int, batch: int) -> int:
    """Records in the j-th step of an epoch over n records."""
    return min(batch, n - (j % math.ceil(n / batch)) * batch)


class Run:
    """State of one measured run.

    An untraced run times every operation of its window plainly. A traced
    run alternates plain and traced fits (rounds of steps and scoring calls
    on M) over the same window, so both modes see the same machine speed;
    the ratio of their median steps is the tracing overhead, and the spans
    of the traced ones give the per-layer split.
    """

    def __init__(self, spec, seed, seconds, trace, workdir, smoke):
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.datasets = datasets(spec, workdir, smoke)
        self.seconds, self.trace = seconds, trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.values: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.sizes: dict = {}
        self.quality: dict[str, float] = {}
        self.info: dict[str, float] = {}  # printed, not in BENCHMARK.json
        self.rebinder = Rebinder()  # the clocks, installed for the whole run
        self.trace_rebinder = Rebinder()  # Tracer, installed while tracing is on
        self.train_setup = SetupClock()  # fit up to train_epoch
        self.eval_setup = SetupClock()  # evaluate_checkpoint up to evaluate
        self.clock = StepClock()
        self.tracer = Tracer(f"{spec.name}/seed{seed}/trace{trace}")
        self.step_times: dict[bool, list[float]] = {False: [], True: []}  # by traced
        # plain operations and set-ups, the figures of an untraced run
        self.steps: list[float] = []
        self.step_records: list[int] = []
        self.scores: list[float] = []
        self.score_records: list[int] = []
        self.setups: dict[str, list[float]] = {"train": [], "eval": []}
        self.t0 = time.perf_counter()

    def install_clocks(self) -> None:
        self.train_setup.install(self.rebinder, trainkit, "train_epoch")
        self.eval_setup.install(self.rebinder, evalkit, "evaluate")
        self.clock.install(self.rebinder, trainkit)

    def tracing(self, on: bool) -> None:
        if on == self.tracer.on:
            return
        self.rebinder.restore()  # the clocks stay outermost
        if on:
            self.tracer.install(self.trace_rebinder, trainkit, evalkit, diffcore)
        else:
            self.trace_rebinder.restore()
        self.tracer.on = on
        self.install_clocks()

    def modes(self, more=lambda: False):
        """Yield whether to trace the next fit or round, until the window is
        over (and `more()` is false, and a traced run has timed both modes)."""
        deadline = time.perf_counter() + self.seconds
        traced = False
        while (
            time.perf_counter() < deadline
            or more()
            or not self.step_times[False]
            or (self.trace and not self.step_times[True])
        ):
            self.tracing(traced)
            yield traced
            traced = bool(self.trace) and not traced
        self.tracing(False)

    def set_up(self, clock: SetupClock, call, span: str) -> dict:
        """Run `call` (a fit or evaluate_checkpoint) up to its first operation
        and return the arguments of that operation, by parameter name."""
        with self.tracer.span(span):
            clock.start(stop=True)
            try:
                call()
            except SetupDone:
                return clock.args
        raise RuntimeError("set-up returned without reaching its first operation")

    def timed_setups(self, clock: SetupClock, call, span: str, key: str) -> dict:
        """Set up spec.setup_reps times (traced in traced runs) and keep their
        times. Returns the first operation's arguments from the last."""
        reps = self.spec.setup_reps
        self.tracing(bool(self.trace))
        for _ in range(reps):
            args = self.set_up(clock, call, span)
        self.tracing(False)
        self.setups[key] += [end - start for start, end in clock.intervals[-reps:]]
        return args

    def score(self, args: dict, reference) -> tuple[tuple[float, float], tuple]:
        """One scoring call on captured arguments; its (start, end) and its
        checked report, which must equal `reference` unless that is None."""
        self.attempted += 1
        start = time.perf_counter()
        report = evalkit.evaluate(**args)
        end = time.perf_counter()
        fields = check_report(report)
        if reference is not None and fields != reference:
            raise CheckFailed("a scoring call did not repeat the first one bit for bit")
        return (start, end), fields

    def fail(self, err: BaseException) -> None:
        self.failed += 1
        self.errors.append("".join(traceback.format_exception_only(type(err), err)).strip())


def run_fit(run: Run) -> None:
    """longtail-fit-S: whole train -> checkpoint -> evaluate pipelines, each
    followed by more scoring calls on the arguments evaluate_checkpoint built."""
    spec = run.spec
    inputs = [(d / "responses.csv", d / "qmatrix.csv") for d in run.datasets]
    n_quality = len(inputs)
    base = config_of(spec, 0)
    run.train_setup.start(stop=False)
    warm = trainkit.fit(replace(base, epochs=spec.warmup), *inputs[0], run.workdir / "warmup")
    run.sizes = sizes_of(run.train_setup.args)
    run.eval_setup.start(stop=False)
    evalkit.evaluate_checkpoint(warm.checkpoint_path, warm.test_path)
    run.sizes.update(sizes_of(run.eval_setup.args))

    reports = []
    for i, traced in enumerate(run.modes(more=lambda: len(reports) < n_quality)):
        # fit i trains dataset i % n with master seed i % n; from the n-th
        # fit on, each repeats an earlier one and must match it bit for bit
        config = replace(base, master_seed=i % n_quality)
        mark, losses = len(run.clock.marks), len(run.clock.losses)
        run.attempted += 2  # the fit and the scoring call inside evaluate_checkpoint
        try:
            with run.tracer.span("op.fit") as fit_op:
                run.train_setup.start(stop=False)
                result = trainkit.fit(config, *inputs[i % n_quality], run.workdir / f"fit{i}")
                run.eval_setup.start(stop=False)
                report = evalkit.evaluate_checkpoint(result.checkpoint_path, result.test_path)
                fields = check_report(report)
                scores = [run.eval_setup.first_calls[-1]]
                for _ in range(spec.scores - 1):
                    interval, _ = run.score(run.eval_setup.args, fields)
                    scores.append(interval)
        except Exception as err:
            run.attempted += len(run.clock.marks) - mark
            run.fail(err)
            return
        marks = run.clock.marks[mark:]
        run.attempted += len(marks)
        try:
            check_losses(run.clock.losses[losses:])
            if report.acc < ACC_BAR:
                raise CheckFailed(f"fit {i}: acc {report.acc:.4f} is under c09's {ACC_BAR}")
            if i >= n_quality and fields != reports[i % n_quality]:
                raise CheckFailed(f"fit {i} did not repeat fit {i % n_quality} bit for bit")
        except CheckFailed as err:
            run.fail(err)
            return
        if i < n_quality:
            reports.append(fields)
        # the set-up ends where fit enters train_epoch; the first step runs
        # from there to the first mark
        setup, eval_setup = run.train_setup.intervals[-1], run.eval_setup.intervals[-1]
        n_train = len(run.train_setup.args["train_set"])
        intervals = list(zip([setup[1]] + marks[:-1], marks))
        run.step_times[traced] += [b - a for a, b in intervals]
        if traced:
            for name, spans in (("op.setup", [setup]), ("op.step", intervals),
                                ("op.eval_setup", [eval_setup]), ("op.score", scores)):
                run.tracer.add_intervals(fit_op, name, spans)
            continue
        run.setups["train"].append(setup[1] - setup[0])
        run.setups["eval"].append(eval_setup[1] - eval_setup[0])
        run.steps += [b - a for a, b in intervals]
        run.step_records += [records_in_step(k, n_train, config.batch_size) for k in range(len(marks))]
        run.scores += [b - a for a, b in scores]
        run.score_records += [len(run.eval_setup.args["test_set"])] * len(scores)

    quality = np.mean(np.asarray(reports), axis=0)
    run.quality = {"acc": quality[0], "acc50": quality[2], "rmse50": quality[3],
                   "trainings": len(reports)}


def run_steps(run: Run) -> None:
    """scd-steps-M: rounds of optimizer steps through trainkit.train_epoch,
    each followed by scoring calls through evalkit.evaluate."""
    spec = run.spec
    data = run.datasets[0]

    def fit():
        trainkit.fit(
            config_of(spec, run.seed), data / "responses.csv", data / "qmatrix.csv",
            run.workdir / "fit",
        )

    def evaluate_checkpoint():
        evalkit.evaluate_checkpoint(data / "checkpoint.npz", data / "test.csv")

    clock = run.clock
    args, epoch = {}, 0

    def steps(n: int) -> tuple[list[tuple[float, float]], list[int]]:
        """Run n steps, from the start of a fresh epoch; return their
        intervals and records."""
        nonlocal epoch
        clock.limit = len(clock.marks) + n
        n_train, batch = len(args["train_set"]), args["config"].batch_size
        intervals, records = [], []
        t_prev = time.perf_counter()
        while True:
            mark, losses = len(clock.marks), len(clock.losses)
            try:
                trainkit.train_epoch(**{**args, "epoch": epoch})
                closed = False
            except WindowClosed:
                closed = True
            finally:
                run.attempted += len(clock.marks) - mark
            check_losses(clock.losses[losses:])
            new = clock.marks[mark:]
            intervals += list(zip([t_prev] + new[:-1], new))
            records.extend(records_in_step(j, n_train, batch) for j in range(len(new)))
            t_prev = new[-1] if new else t_prev
            epoch += 1
            if closed:
                return intervals, records

    try:
        # one untimed set-up of each kind for the warm-up; the timed set-ups
        # follow it, and the window works on the arguments of the last ones,
        # training from its first epoch
        args = run.set_up(run.train_setup, fit, "op.setup")
        epoch = args["epoch"]
        steps(spec.warmup)
        eval_args = run.set_up(run.eval_setup, evaluate_checkpoint, "op.eval_setup")
        _, reference = run.score(eval_args, None)
        run.sizes = {**sizes_of(args), **sizes_of(eval_args)}
        args = run.timed_setups(run.train_setup, fit, "op.setup", "train")
        eval_args = run.timed_setups(run.eval_setup, evaluate_checkpoint, "op.eval_setup", "eval")
        epoch = args["epoch"]
        for traced in run.modes():
            with run.tracer.span("op.phase") as phase_op:
                intervals, records = steps(spec.round_steps)
            run.step_times[traced] += [b - a for a, b in intervals]
            if traced:
                run.tracer.add_intervals(phase_op, "op.step", intervals)
            else:
                run.steps += [b - a for a, b in intervals]
                run.step_records += records
            for _ in range(spec.scores):
                with run.tracer.span("op.score"):
                    (start, end), _ = run.score(eval_args, reference)
                if not traced:
                    run.scores.append(end - start)
            if not traced:
                run.score_records += [len(eval_args["test_set"])] * spec.scores
    except CheckFailed as err:
        run.fail(err)
    except Exception as err:
        run.attempted += 1  # the set-up or operation that raised
        run.fail(err)


def report_end_to_end(run: Run) -> None:
    steps, scores = run.steps, run.scores
    run.values["setup_s"] = p50(run.setups["train"]) + p50(run.setups["eval"])
    run.values["step_ms_p90"] = p90(steps) * 1e3
    run.values["eval_ms_p90"] = p90(scores) * 1e3
    run.samples.update(setup_s=len(run.setups["train"]), step_ms_p90=len(steps),
                       eval_ms_p90=len(scores))
    run.info = {
        "step_ms_p50": p50(steps) * 1e3,
        "train_records_per_s": sum(run.step_records) / sum(steps),
        "eval_ms_p50": p50(scores) * 1e3,
        "eval_records_per_s": sum(run.score_records) / sum(scores),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def measure(spec, seed, seconds, trace, workdir, smoke, spans: Path) -> dict:
    run = Run(spec, seed, seconds, trace, workdir, smoke)
    run.install_clocks()
    try:
        {"fit": run_fit, "steps": run_steps}[spec.kind](run)
    finally:
        run.trace_rebinder.restore()
        run.rebinder.restore()

    values = {}
    if trace:
        table = PER_LAYER
        if not run.failed:
            times = run.step_times
            overhead = (p50(times[True]) / p50(times[False]) - 1.0) * 100.0
            values = run.tracer.layer_metrics(overhead)
        run.tracer.write(spans, run.t0)
    else:
        table = END_TO_END
        if not run.failed:
            report_end_to_end(run)
            values = run.values
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _) in table.items()
        if name in values
    }
    return {
        "correct": run.failed == 0 and len(metrics) == len(table),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "errors": run.errors,
        "samples": run.samples,
        "quality": run.quality,
        "info": run.info,
        "step_ms": {
            ("traced" if k else "plain"): [round(t * 1e3, 3) for t in v]
            for k, v in run.step_times.items()
        },
        "eval_ms": [round(t * 1e3, 3) for t in run.scores],
        "sizes": run.sizes,
        "absent": run.tracer.absent,
        "environment": environment(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("workload", choices=sorted(WORKLOADS))
    gen.add_argument("seed", type=int)
    gen.add_argument("workdir", type=Path)
    gen.add_argument("--smoke", action="store_true")
    run = sub.add_parser("run")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("seed", type=int)
    run.add_argument("workdir", type=Path)
    run.add_argument("seconds", type=float)
    run.add_argument("trace", type=int, choices=(0, 1))
    run.add_argument("result", type=Path)
    run.add_argument("spans", type=Path)
    run.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    spec = WORKLOADS[a.workload]
    if a.command == "gen":
        generate(spec, a.seed, a.workdir, a.smoke)
        return
    out = measure(spec, a.seed, a.seconds, a.trace, a.workdir, a.smoke, a.spans)
    a.result.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
