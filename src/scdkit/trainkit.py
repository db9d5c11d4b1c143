"""Multi-task training loop.

Each epoch draws one fresh view pair of the interaction subgraph (importance
-based, uniform-matched for the random ablation, or none for supervised-only)
stacked into one two-row View, and walks shuffled mini-batches. Per batch the
supervised loss runs on the ORIGINAL graph, the contrastive loss on both views
(one forward over their two-copy disjoint union), and one Adam step follows.
Each step runs in its own call (`_train_step`), so at most one step's graph
is alive at a time: the previous step's is gone before the next forward.
Every random stream is derived from (master_seed, epoch, stream), so runs are
bit-reproducible and resumable in single-thread double precision.
"""

from __future__ import annotations

import hashlib
import json
import logging
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (
    ResponseSet,
    dataset_stats,
    filter_min_interactions,
    load_qmatrix,
    load_responses,
    split_train_test,
    write_responses,
)
from .objectives import INFONCE_MAX_ROWS, LossBreakdown, main_loss, ssl_loss, total_loss
from .relgraph import DirectedSplit, RelationGraph, build_relation_graph, directed_split
from .scdmodel import (
    AdamState,
    Checkpoint,
    ModelParams,
    diagnose,
    gcn_forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .viewgen import DropoutParams, View, generate_random_view, generate_view_pair
from .viewgen import matched_uniform_p, require_finite

log = logging.getLogger(__name__)

MODES = ("scd", "scd-random", "supervised-only")

# Adam's decay rates and denominator offset, as Kingma & Ba (ICLR 2015) publish them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the largest x whose exp(x) is a finite float64
MAX_EXP_ARG = float(np.log(np.finfo(np.float64).max))

# stream tags for seed derivation
_STREAM_SPLIT = 0
_STREAM_VIEWS = 1
_STREAM_SHUFFLE = 2


class TrainingDiverged(FloatingPointError):
    """Raised when a loss or gradient goes non-finite; carries the rescue path."""

    def __init__(self, message: str, checkpoint_path: Path | None = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 256
    learning_rate: float = 1e-3
    dropout: DropoutParams = field(default_factory=DropoutParams)
    tau: float = 0.5
    lambda1: float = 0.1
    lambda2: float = 1e-4
    n_layers: int = 2
    dim: int | None = None
    master_seed: int = 0
    mode: str = "scd"
    min_interactions: int = 5
    train_ratio: float = 0.8
    include_positive: bool = False
    checkpoint_every: int = 0

    def __post_init__(self):
        ints = ["epochs", "batch_size", "n_layers", "master_seed", "min_interactions"]
        ints += ["checkpoint_every"] if self.dim is None else ["checkpoint_every", "dim"]
        for name in ints:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.n_layers < 1:
            raise ValueError("epochs, batch_size and n_layers must be >= 1")
        if self.master_seed < 0 or self.min_interactions < 0:
            raise ValueError("master_seed and min_interactions must be >= 0")
        if not isinstance(self.include_positive, bool):
            got = self.include_positive
            raise ValueError(f"include_positive must be true or false, got {got!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        require_finite(self, ("learning_rate", "tau", "lambda1", "lambda2", "train_ratio"))
        for name in ("learning_rate", "tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if 1.0 / self.tau > MAX_EXP_ARG:
            raise ValueError(
                f"tau must be >= {1.0 / MAX_EXP_ARG:.10g}: the contrastive loss takes "
                f"exp(1/tau), which overflows above 1/tau = log(float max) = {MAX_EXP_ARG:.6f}"
            )
        for name in ("lambda1", "lambda2"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 < self.train_ratio < 1:
            raise ValueError("train_ratio must lie in (0, 1)")
        if self.dim is not None and self.dim < 1:
            raise ValueError("dim must be >= 1 (or null for the concept count)")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 writes no epoch checkpoints)")

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("dropout"))
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        dropout = DropoutParams.from_dict(raw)
        raw = {k: v for k, v in raw.items() if k not in DropoutParams.__dataclass_fields__}
        known = {f for f in cls.__dataclass_fields__ if f != "dropout"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(dropout=dropout, **raw)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update at config.learning_rate, in place.
    state.step must already be advanced to the 1-based index of this step."""
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        p -= config.learning_rate * (state.m[name] / c1) / (np.sqrt(state.v[name] / c2) + ADAM_EPS)


def _rng(master_seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng((int(master_seed), *map(int, tags)))


def _epoch_views(split: DirectedSplit, config: TrainConfig, epoch: int) -> View | None:
    """The epoch's two views stacked into one two-row View; None for supervised-only."""
    if config.mode == "supervised-only":
        return None
    rng = _rng(config.master_seed, epoch, _STREAM_VIEWS)
    if config.mode == "scd":
        pair = generate_view_pair(split, config.dropout, rng)
    else:
        p_uniform = matched_uniform_p(split, config.dropout)
        pair = [generate_random_view(split, p_uniform, rng) for _ in range(2)]
    return View(np.stack([v.kept_e2s for v in pair]), np.stack([v.kept_s2e for v in pair]))


def _train_step(
    params: ModelParams,
    split: DirectedSplit,
    train_set: ResponseSet,
    config: TrainConfig,
    views: View | None,
    batch: np.ndarray,
    opt: AdamState,
) -> LossBreakdown:
    """One optimizer step on the records `batch`; returns its float breakdown.

    The step reads the final rows of the batch's distinct students and
    exercises: both forwards compute their last layer for those rows only,
    the intact one's feed the response loss, and the views contrast theirs.
    A side with fewer than 2 of them has no negatives, so it adds no
    contrastive term and logs 0.0 for this step.

    The step's whole graph lives in this frame's locals, so none of it is
    reachable once the step returns. The model and loss functions are looked
    up as module globals on every call.
    """
    b_students = train_set.students[batch]
    b_exercises = train_set.exercises[batch]
    rows = (np.unique(b_students), np.unique(b_exercises))

    nodes = params.wrap()
    states = gcn_forward(params, split, nodes=nodes, rows=rows)
    diag = diagnose(states, nodes)
    y = predict(diag, nodes, split, b_students, b_exercises)
    l_main = main_loss(y, train_set.scores[batch])

    l_ssl_s = l_ssl_e = None
    if views is not None:
        union = gcn_forward(params, split, view=views, nodes=nodes, rows=rows)
        states1, states2 = (union.copy_rows(j) for j in (0, 1))
        l_ssl_s, l_ssl_e = ssl_loss(
            states1, states2, config.tau, include_positive=config.include_positive
        )

    total, breakdown = total_loss(
        l_main, l_ssl_s, l_ssl_e, nodes, config.lambda1, config.lambda2, config.tau
    )
    total.backward()
    grads = {name: node.grad for name, node in nodes.items()}
    opt.step += 1
    adam_step(params, grads, opt, config)
    return breakdown


def train_epoch(
    params: ModelParams,
    split: DirectedSplit,
    train_set: ResponseSet,
    config: TrainConfig,
    epoch: int,
    opt: AdamState,
) -> LossBreakdown:
    """One pass over shuffled mini-batches; returns the batch-averaged breakdown."""
    if len(train_set) == 0:
        raise ValueError("train set is empty")
    views = _epoch_views(split, config, epoch)
    order = _rng(config.master_seed, epoch, _STREAM_SHUFFLE).permutation(len(train_set))

    sums = np.zeros(4)  # main, ssl_s, ssl_e, reg
    n_batches = 0
    for start in range(0, len(order), config.batch_size):
        batch = order[start : start + config.batch_size]
        breakdown = _train_step(params, split, train_set, config, views, batch, opt)
        sums += (breakdown.main, breakdown.ssl_student, breakdown.ssl_exercise, breakdown.reg)
        n_batches += 1

    avg = sums / n_batches
    return LossBreakdown(
        main=avg[0],
        ssl_student=avg[1],
        ssl_exercise=avg[2],
        reg=avg[3],
        total=avg[0] + config.lambda1 * (avg[1] + avg[2]) + config.lambda2 * avg[3],
        lambda1=config.lambda1,
        lambda2=config.lambda2,
        tau=config.tau,
    )


class RunRefused(ValueError):
    """A run that `fit` refuses before it writes any file."""


class ResumeMismatch(RunRefused):
    """A checkpoint that does not belong to the run asked to continue it."""


def _refuse_oversized_contrast(config: TrainConfig, m: int, n: int) -> None:
    """Raise RunRefused if a contrastive step of this run could hand the loss
    more than INFONCE_MAX_ROWS students or exercises. A batch contrasts its
    distinct students and exercises, at most batch_size of each."""
    if config.mode == "supervised-only":
        return
    rows = max(min(config.batch_size, m), min(config.batch_size, n))
    if rows > INFONCE_MAX_ROWS:
        raise RunRefused(
            f"a batch of {config.batch_size} records contrasts up to {rows} students or "
            f"exercises; the contrastive loss takes at most {INFONCE_MAX_ROWS}"
        )


# config keys that fix the train split, the views and the random streams
_RESUME_KEYS = ("mode", "master_seed", "k", "theta", "p_min", "min_interactions", "train_ratio")


def _records_sha256(rs: ResponseSet) -> str:
    """sha256 of the (student, exercise, score) records, in record order."""
    digest = hashlib.sha256()
    for column, dtype in ((rs.students, "<i8"), (rs.exercises, "<i8"), (rs.scores, "<f8")):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


def _check_resume(
    ckpt: Checkpoint, config: TrainConfig, graph: RelationGraph, train_set: ResponseSet
) -> None:
    """Raise ResumeMismatch naming the first way `ckpt` differs from this run."""
    if ckpt.opt is None:
        raise ResumeMismatch("cannot resume: the checkpoint holds no optimizer state")
    saved, wanted = ckpt.config, config.to_dict()
    checks = [(key, saved.get(key), wanted[key]) for key in _RESUME_KEYS]
    checks += [
        (
            "node counts",
            (ckpt.graph.n_students, ckpt.graph.n_exercises, ckpt.graph.n_concepts),
            (graph.n_students, graph.n_exercises, graph.n_concepts),
        ),
        ("n_layers", ckpt.params.n_layers, config.n_layers),
        ("dim", ckpt.params.dim, graph.n_concepts if config.dim is None else config.dim),
    ]
    for what, have, want in checks:
        if have != want:
            raise ResumeMismatch(
                f"cannot resume: checkpoint has {what} {have!r}, this run {want!r}"
            )
    for what, have, want in (
        ("student-exercise edges", ckpt.graph.se_edges, graph.se_edges),
        ("exercise-concept edges", ckpt.graph.ec_edges, graph.ec_edges),
    ):
        if not np.array_equal(have, want):
            raise ResumeMismatch(f"cannot resume: the checkpoint's {what} differ from this run's")
    # checkpoints written before the fingerprint carry none
    if ckpt.train_sha256 is not None and ckpt.train_sha256 != _records_sha256(train_set):
        raise ResumeMismatch(
            "cannot resume: the checkpoint's train records differ from this run's"
        )


@dataclass(eq=False)
class FitResult:
    params: ModelParams
    checkpoint_path: Path
    log_path: Path
    log_rows: list[str]
    train_path: Path
    test_path: Path
    config: TrainConfig


def fit(
    config: TrainConfig,
    responses_path,
    qmatrix_path,
    output_dir,
    resume_from=None,
) -> FitResult:
    """Full pipeline: ingest, filter, split, build graph, train, checkpoint.

    Writes into `output_dir`: train.csv / test.csv (the split, in raw keys),
    mappings.json, stats.json, train_log.csv, and checkpoint.npz (params,
    config, graph, and optimizer state, so training can resume bit-exactly).

    Each step contrasts the distinct students and exercises of its batch
    (`_train_step`). `resume_from` continues a checkpoint of this run; one
    from other data or train records, model structure, mode, seed, dropout
    or split settings, or one without optimizer state, raises ResumeMismatch,
    and one already at or past `epochs` raises RunRefused. A resumed
    train_log.csv holds only the epochs it trains. A contrastive run whose
    batch_size lets a step contrast more than INFONCE_MAX_ROWS students or
    exercises raises RunRefused. Each of these refusals comes before
    `output_dir` is created.
    """
    output_dir = Path(output_dir)
    rs = load_responses(responses_path)
    if config.min_interactions > 0:
        rs = filter_min_interactions(rs, config.min_interactions)
    q = load_qmatrix(qmatrix_path, rs)
    train_set, test_set = split_train_test(
        rs, config.train_ratio, seed=int(_rng(config.master_seed, _STREAM_SPLIT).integers(2**31))
    )
    if len(train_set) == 0:
        raise ValueError("train split is empty")
    graph = build_relation_graph(train_set, q)
    _refuse_oversized_contrast(config, graph.n_students, graph.n_exercises)
    split = directed_split(graph)

    start_epoch = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        _check_resume(ckpt, config, graph, train_set)
        params, opt, start_epoch = ckpt.params, ckpt.opt, ckpt.epoch
        if ckpt.epoch >= config.epochs:
            raise RunRefused(
                f"checkpoint already at epoch {ckpt.epoch} >= epochs {config.epochs}"
            )
    else:
        params = init_params(
            graph.n_students,
            graph.n_exercises,
            graph.n_concepts,
            dim=config.dim,
            n_layers=config.n_layers,
            seed=config.master_seed,
        )
        opt = AdamState.fresh(params)

    output_dir.mkdir(parents=True, exist_ok=True)
    train_path = output_dir / "train.csv"
    test_path = output_dir / "test.csv"
    write_responses(train_path, train_set)
    write_responses(test_path, test_set)
    (output_dir / "mappings.json").write_text(
        json.dumps(
            {
                "students": list(rs.student_keys),
                "exercises": list(rs.exercise_keys),
                "concepts": list(q.concept_keys),
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    (output_dir / "stats.json").write_text(
        json.dumps(dataset_stats(rs, q).to_dict(), indent=1), encoding="utf-8"
    )

    ckpt_path = output_dir / "checkpoint.npz"
    log_path = output_dir / "train_log.csv"
    log_rows: list[str] = []
    last_good, last_good_opt = _snapshot(params, opt)

    def save(path, model: ModelParams, optimizer: AdamState, epoch: int) -> None:
        ckpt = Checkpoint(
            params=model,
            config=config.to_dict(),
            graph=graph,
            student_keys=train_set.student_keys,
            exercise_keys=train_set.exercise_keys,
            concept_keys=q.concept_keys,
            epoch=epoch,
            opt=optimizer,
            train_sha256=_records_sha256(train_set),
        )
        save_checkpoint(path, ckpt)

    with open(log_path, "w", encoding="utf-8") as log_file:
        log_file.write(LossBreakdown.CSV_HEADER + "\n")
        for epoch in range(start_epoch + 1, config.epochs + 1):
            try:
                breakdown = train_epoch(params, split, train_set, config, epoch, opt)
            except FloatingPointError as err:
                rescue = output_dir / "checkpoint_diverged.npz"
                save(rescue, last_good, last_good_opt, epoch - 1)
                raise TrainingDiverged(
                    f"epoch {epoch}: {err}; last good state saved to {rescue}", rescue
                ) from err
            row = breakdown.csv_row(epoch)
            log_rows.append(row)
            log_file.write(row + "\n")
            log.info("epoch %d: %s", epoch, row)
            last_good, last_good_opt = _snapshot(params, opt)
            if config.checkpoint_every and epoch % config.checkpoint_every == 0:
                save(output_dir / f"checkpoint_ep{epoch}.npz", params, opt, epoch)

    save(ckpt_path, params, opt, config.epochs)
    return FitResult(params, ckpt_path, log_path, log_rows, train_path, test_path, config)


def _snapshot(params: ModelParams, opt: AdamState) -> tuple[ModelParams, AdamState]:
    """Copies of the params and the optimizer state at one instant. adam_step
    rebinds the moment arrays instead of writing into them, so copies of the
    moment dicts suffice."""
    params = ModelParams((k, v.copy()) for k, v in params.items())
    return params, AdamState(dict(opt.m), dict(opt.v), opt.step)
