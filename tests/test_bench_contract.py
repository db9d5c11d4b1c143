"""The names and signatures that the benchmark in `perfbench/` rebinds and calls.

`perfbench/tracing.py` wraps module attributes of `trainkit` and `evalkit` by
name, and `perfbench/worker.py` calls `train_epoch` and `evaluate` with
keyword arguments, builds a `LossBreakdown` and checks the step losses and
every row of the `EvalReport`. The tracer also reads
`gcn_forward`'s first three arguments, `ModelParams.n_layers`, the four
adjacencies and the masks of the views `generate_view_pair` draws. A renamed
head or argument would otherwise show only in the slow benchmark smoke test.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import dataclasses

import numpy as np
import pytest

from scdkit import evalkit, relgraph, trainkit
from scdkit.objectives import LossBreakdown
from scdkit.scdmodel import ModelParams
from scdkit.synth import make_synthetic, write_synthetic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    # the benchmark's modules import their siblings (`specs`, `tracing`) as
    # top-level modules; the import leaves no bytecode cache in perfbench/
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


@pytest.fixture(scope="module")
def worker():
    return load_perfbench("worker")


def test_every_rebound_name_resolves(tracing):
    names = [(trainkit, name) for name in tracing.TRAINKIT_SPANS]
    names += [(evalkit, name) for name in tracing.EVALKIT_SPANS]
    names += [(trainkit, "adam_step"), (trainkit, "total_loss"), (trainkit, "train_epoch")]
    names += [(evalkit, "evaluate")]
    missing = [f"{m.__name__}.{name}" for m, name in names if not callable(getattr(m, name, None))]
    assert missing == []


def test_called_arguments_exist():
    assert {"split", "train_set", "config", "epoch"} <= set(
        inspect.signature(trainkit.train_epoch).parameters
    )
    assert {"split", "test_set"} <= set(inspect.signature(evalkit.evaluate).parameters)


def test_loss_breakdown_builds_from_eight_positional_floats():
    LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_gcn_forward_arguments_and_layer_count():
    assert list(inspect.signature(trainkit.gcn_forward).parameters)[:3] == [
        "params",
        "split",
        "view",
    ]
    assert isinstance(inspect.getattr_static(ModelParams, "n_layers"), property)


def test_directions_name_the_split_fields():
    fields = [f.name for f in dataclasses.fields(relgraph.DirectedSplit)]
    assert sorted(relgraph.DIRECTIONS) == sorted(fields) and len(fields) == 4


def test_rebound_step_functions_are_called_on_every_step(small_world, monkeypatch):
    # the step clock reads adam_step and total_loss, the tracer gcn_forward;
    # a step that reached them other than through the module globals would
    # go unseen
    calls = {"adam_step": 0, "total_loss": 0, "gcn_forward": 0}
    for name in calls:
        def counted(*args, _orig=getattr(trainkit, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(trainkit, name, counted)
    train = small_world["train"]
    params = trainkit.init_params(4, 5, 3, seed=0)
    config = trainkit.TrainConfig(epochs=1, batch_size=4)  # 10 records: 3 steps
    trainkit.train_epoch(
        params, small_world["split"], train, config, 1,
        trainkit.AdamState.fresh(params),
    )
    assert calls == {"adam_step": 3, "total_loss": 3, "gcn_forward": 6}


def test_rebound_scoring_functions_are_called_once_per_evaluate(small_world, monkeypatch):
    # the tracer reads evalkit.student_table_ms, scdmodel.forward_ms and the
    # report's self time from these four; a scoring call that reached them
    # other than through evalkit's module globals would zero those figures
    calls = {"gcn_forward": 0, "diagnose": 0, "predict": 0, "student_table": 0}
    for name in calls:
        def counted(*args, _orig=getattr(evalkit, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(evalkit, name, counted)
    train = small_world["train"]
    evalkit.evaluate(
        params=trainkit.init_params(4, 5, 3, seed=0), split=small_world["split"], test_set=train
    )
    assert calls == {"gcn_forward": 1, "diagnose": 1, "predict": 1, "student_table": 1}


class StopAtTraining(Exception):
    pass


def test_set_up_reaches_the_rebound_loaders(tmp_path, monkeypatch):
    # the tracer reads corpus.load_ms, corpus.load_test_ms and
    # scdmodel.load_checkpoint_ms from these names; a set-up that reached the
    # loaders other than through the module globals would zero those figures
    rp, qp = write_synthetic(tmp_path / "data", make_synthetic(30, 15, 5, seed=3))
    config = trainkit.TrainConfig(epochs=1, min_interactions=1)
    fitted = trainkit.fit(config, rp, qp, tmp_path / "run")
    calls = []

    def counted(module, name):
        def wrapper(*args, _orig=getattr(module, name), **kwargs):
            bound = inspect.signature(_orig).bind(*args, **kwargs)
            calls.append((f"{module.__name__}.{name}", bound.arguments.get("optimizer")))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def stop(*args, **kwargs):
        raise StopAtTraining

    for module, name in ((trainkit, "load_responses"), (trainkit, "load_qmatrix")):
        counted(module, name)
    monkeypatch.setattr(trainkit, "train_epoch", stop)
    with pytest.raises(StopAtTraining):
        trainkit.fit(config, rp, qp, tmp_path / "again")
    assert calls == [
        ("scdkit.trainkit.load_responses", None), ("scdkit.trainkit.load_qmatrix", None)
    ]

    calls.clear()
    for module, name in ((evalkit, "load_checkpoint"), (evalkit, "load_responses")):
        counted(module, name)
    evalkit.evaluate_checkpoint(fitted.checkpoint_path, fitted.test_path)
    assert calls == [
        ("scdkit.evalkit.load_checkpoint", False), ("scdkit.evalkit.load_responses", None)
    ]


def test_benchmark_output_checks_pass_on_a_trained_small_world(worker, small_world, monkeypatch):
    # the worker's checks read every step's total and every per-student and
    # per-group row of the report; a reshaped EvalReport would fail every run
    losses = []

    def recorded(*args, _orig=trainkit.total_loss, **kwargs):
        out = _orig(*args, **kwargs)
        losses.append(out[1].total)
        return out

    monkeypatch.setattr(trainkit, "total_loss", recorded)
    train, split = small_world["train"], small_world["split"]
    params = trainkit.init_params(4, 5, 3, seed=0)
    config = trainkit.TrainConfig(epochs=1, batch_size=4)
    trainkit.train_epoch(params, split, train, config, 1, trainkit.AdamState.fresh(params))
    assert len(losses) == 3
    worker.check_losses(losses)
    report = evalkit.evaluate(params=params, split=split, test_set=train)
    assert worker.check_report(report) == (report.acc, report.rmse, report.acc50, report.rmse50)
    assert len(report.per_student) == 4


def test_view_pair_carries_both_masks(small_world):
    split = small_world["split"]
    views = trainkit.generate_view_pair(split, trainkit.TrainConfig(), np.random.default_rng(0))
    assert len(views) == 2
    for view in views:
        assert view.kept_e2s.shape == (split.e2s.n_edges,)
        assert view.kept_s2e.shape == (split.s2e.n_edges,)
