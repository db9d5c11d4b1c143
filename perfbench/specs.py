"""Workloads and metric names of the scdkit benchmark.

Standard library only: `run.py` reads these tables before any child process
imports numpy or scdkit. `BENCHMARK.json` at the repository root lists the
same workload and metric names; `test_smoke.py` checks that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """Arguments of `synth.make_synthetic`, apart from the seed."""

    n_students: int
    n_exercises: int
    n_concepts: int
    noise: float = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit" or "steps": which loop of worker.py runs it
    scale: Scale
    smoke_scale: Scale
    config: dict  # TrainConfig fields that differ from the defaults
    why: str
    warmup: int  # untimed warm-up: epochs of one short fit, or steps
    scores: int  # scoring calls after each fit, or after each round of steps
    setup_reps: int = 0  # timed set-ups after the warm-up; fit workloads time every fit's
    round_steps: int = 0  # steps workloads: steps between two runs of scoring calls
    quality_fits: int = 0  # fit workloads: datasets, one training each, then cycled


# BLAS and OpenMP thread variables, each set to 1 in the benchmark's processes
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The c09 acceptance protocol: the paper's long-tail setting.
C09_CONFIG = dict(
    mode="scd",
    epochs=50,
    learning_rate=0.01,
    lambda1=2.0,
    tau=1.0,
    train_ratio=0.5,
    min_interactions=1,
)
# c09's absolute bar, which every longtail-fit-S training must clear
ACC_BAR = 0.75

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="longtail-fit-S",
            kind="fit",
            scale=Scale(200, 50, 10, noise=0.10),
            smoke_scale=Scale(200, 50, 10, noise=0.10),
            config=C09_CONFIG,
            why=(
                "c09 protocol end to end (fit, checkpoint, evaluate) on 200x50x10 long-tail "
                "data: the paper's setting, where per-op Python overhead and I/O dominate"
            ),
            warmup=2,
            scores=5,
            quality_fits=5,
        ),
        Workload(
            name="scd-steps-M",
            kind="steps",
            scale=Scale(5000, 300, 30),
            smoke_scale=Scale(400, 60, 10),
            config={},
            why=(
                "default-config scd steps and scoring calls at 5000x300x30: array-bound, the "
                "tape far exceeds the caches, so fused aggregates and tapeless inference show"
            ),
            warmup=4,
            scores=1,
            setup_reps=10,
            round_steps=2,
        ),
    )
}

# name -> (unit, better); every untraced run reports all of them. Medians per
# operation and throughputs are printed but not listed: on a shared machine
# the operations of one run fall into speed levels, and the median and the
# mean follow the share of the run spent in each, which changes from run to
# run by more than any bound allows.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "eval_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better); every traced run reports all of them
PER_LAYER = {
    "diffcore.backward_ms": ("ms", "lower"),
    "diffcore.tape_nodes": ("count", "lower"),
    "diffcore.tape_mb": ("MB", "lower"),
    "scdmodel.gcn_forward_ms": ("ms", "lower"),
    "scdmodel.gcn_forward_views_ms": ("ms", "lower"),
    "scdmodel.edges_per_step": ("count", "lower"),
    "viewgen.kept_frac": ("fraction", "lower"),
    "viewgen.views_ms": ("ms", "lower"),
    "scdmodel.heads_ms": ("ms", "lower"),
    "objectives.main_loss_ms": ("ms", "lower"),
    "objectives.ssl_loss_ms": ("ms", "lower"),
    "objectives.total_loss_ms": ("ms", "lower"),
    "trainkit.adam_ms": ("ms", "lower"),
    "trainkit.step_self_ms": ("ms", "lower"),
    "trainkit.step_wall_ms": ("ms", "lower"),
    "trace.tape_walk_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "corpus.load_ms": ("ms", "lower"),
    "corpus.prepare_ms": ("ms", "lower"),
    "relgraph.build_ms": ("ms", "lower"),
    "scdmodel.init_ms": ("ms", "lower"),
    "scdmodel.load_checkpoint_ms": ("ms", "lower"),
    "corpus.load_test_ms": ("ms", "lower"),
    "scdmodel.forward_ms": ("ms", "lower"),
    "scdmodel.eval_tape_nodes": ("count", "lower"),
    "evalkit.student_table_ms": ("ms", "lower"),
    "evalkit.report_ms": ("ms", "lower"),
}
