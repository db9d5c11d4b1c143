"""Print README's "Memory" table: what one default training step holds.

    PYTHONPATH=src python tests/fixtures/memory_table.py [M N K]

The data is `make_synthetic(M, N, K, seed=0)`, by default 5000 300 30 (the
scale of the benchmark's `scd-steps-M` workload), and the config is the
default one. A default fit runs up to its first epoch; `tracemalloc` then
follows one step after a warm-up step, from before the epoch's views are
drawn:
- what is held between steps;
- what the step adds until its backward starts, split into the tape nodes'
  values (the parameters' leaf copies included), the arrays the backward
  rules hold besides those values, and the rest;
- the backward's peak above what it starts with, and the step's peak above
  what is held between steps.
Before that, a child process replicates the benchmark's steps workload
without `tracemalloc`, on the same inputs, which another child made (the
data, and a checkpoint of the initial parameters): 11 train and 11 scoring
set-ups, 4 warm-up steps, and ROUNDS rounds of 2 steps from a fresh epoch
and 1 scoring call. Its `ru_maxrss` is the last row. MB are 2**20 bytes.
"""

from __future__ import annotations

import inspect
import json
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from scdkit import evalkit, trainkit
from scdkit.diffcore import DiffNode
from scdkit.objectives import LossBreakdown
from scdkit.synth import make_synthetic, write_synthetic

M_DATA = (5000, 300, 30)
ROUNDS = 10
MB = 2**20


def _tape_bytes(root: DiffNode, before: set[int]) -> tuple[int, int, int]:
    """The tape's node count, its values' bytes, and the bytes of the arrays
    its rules hold in their closures that are no node's value and not among
    the arrays `before` (ids) that the step did not make."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    values = {id(n.value): n.value.nbytes for n in nodes}
    held = {}
    for node in nodes:
        for cell in (node.backward_fn.__closure__ or ()) if node.backward_fn else ():
            arr = cell.cell_contents
            if isinstance(arr, np.ndarray):
                owner = arr if arr.base is None else arr.base
                if not {id(arr), id(owner)} & (values.keys() | before):
                    held[id(owner)] = owner.nbytes
    return len(nodes), sum(values.values()), sum(held.values())


class _Captured(Exception):
    pass


def _capture(module, name: str, call) -> dict:
    """Run `call` until it calls `module.name`; return that call's arguments
    by parameter name. The set-up the benchmark times ends there."""
    orig = getattr(module, name)

    def stop(*args, **kwargs):
        raise _Captured(inspect.signature(orig).bind(*args, **kwargs).arguments)

    setattr(module, name, stop)
    try:
        call()
    except _Captured as done:
        return done.args[0]
    finally:
        setattr(module, name, orig)
    raise RuntimeError(f"{module.__name__}.{name} was never called")


def step_memory(data: Path) -> dict[str, int]:
    """The tracemalloc rows of the table for a default fit on the inputs in
    `data`, in bytes (`nodes` is a count)."""
    config = trainkit.TrainConfig()
    args = _capture(
        trainkit,
        "train_epoch",
        lambda: trainkit.fit(config, data / "responses.csv", data / "qmatrix.csv", data / "fit"),
    )
    params, split, train, opt = args["params"], args["split"], args["train_set"], args["opt"]
    order = trainkit._rng(config.master_seed, 1, 2).permutation(len(train))
    batches = [order[k * config.batch_size : (k + 1) * config.batch_size] for k in (0, 1)]
    # the intact forward's aggregates hold the graph's own edge arrays
    graph_arrays = {id(a) for adj in vars(split).values() for a in (adj.heads, adj.tails)}
    row: dict[str, int] = {}
    walk = DiffNode.backward

    def traced_backward(root):
        current, forward_peak = tracemalloc.get_traced_memory()
        row["added"] = current - row["held"]
        row["nodes"], row["values"], row["rules"] = _tape_bytes(root, graph_arrays)
        row["forward_peak"] = forward_peak - row["held"]
        tracemalloc.reset_peak()
        walk(root)
        row["backward_peak"] = tracemalloc.get_traced_memory()[1] - current

    tracemalloc.start()
    try:  # the first step replaces Adam's fresh moments with traced ones
        views = trainkit._epoch_views(split, config, 1)
        trainkit._train_step(params, split, train, config, views, batches[0], opt)
        row["held"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        DiffNode.backward = traced_backward
        try:
            trainkit._train_step(params, split, train, config, views, batches[1], opt)
        finally:
            DiffNode.backward = walk
        after_backward_peak = tracemalloc.get_traced_memory()[1] - row["held"]
    finally:
        tracemalloc.stop()
    row["other"] = row["added"] - row["values"] - row["rules"]
    row["step_peak"] = max(row.pop("forward_peak"), after_backward_peak)
    return row


def write_inputs(data: Path, counts=M_DATA, seed: int = 0) -> None:
    """The replica's inputs, made in another process as the benchmark makes
    them: the data, and the checkpoint and test.csv of a fit whose one
    epoch leaves the initial parameters untouched."""
    responses, qmatrix = write_synthetic(data, make_synthetic(*counts, seed=seed))
    epoch = trainkit.train_epoch
    trainkit.train_epoch = lambda *args: LossBreakdown(0, 0, 0, 0, 0, 0, 0, 1)
    try:
        trainkit.fit(trainkit.TrainConfig(master_seed=seed, epochs=1), responses, qmatrix, data)
    finally:
        trainkit.train_epoch = epoch


def rss_replica(data: Path, rounds: int = ROUNDS, seed: int = 0) -> float:
    """`ru_maxrss` in MB of this process after the steps workload's replica
    on the inputs in `data`."""
    config = trainkit.TrainConfig(master_seed=seed)

    def fit():
        trainkit.fit(config, data / "responses.csv", data / "qmatrix.csv", data / "fit")

    def evaluate_checkpoint():
        evalkit.evaluate_checkpoint(data / "checkpoint.npz", data / "test.csv")

    for _ in range(11):
        args = _capture(trainkit, "train_epoch", fit)
        eval_args = _capture(evalkit, "evaluate", evaluate_checkpoint)
    params, split, train, opt = args["params"], args["split"], args["train_set"], args["opt"]
    for epoch in range(1, rounds + 2):
        views = trainkit._epoch_views(split, config, epoch)
        order = trainkit._rng(seed, epoch, 2).permutation(len(train))
        steps = 4 if epoch == 1 else 2  # the first epoch is the warm-up
        for k in range(steps):
            batch = order[k * config.batch_size : (k + 1) * config.batch_size]
            trainkit._train_step(params, split, train, config, views, batch, opt)
        evalkit.evaluate(**eval_args)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child(*args: str) -> str:
    return subprocess.run(
        [sys.executable, __file__, *args], capture_output=True, text=True, check=True
    ).stdout


def table(counts=M_DATA, rounds: int = ROUNDS) -> list[tuple[str, float]]:
    """The table's rows: (what, MB)."""
    # the children start before this process grows: a child's ru_maxrss
    # counts the high-water mark of the process it was spawned from
    with tempfile.TemporaryDirectory() as tmp:
        _child("--inputs", tmp, *map(str, counts))
        rss = json.loads(_child("--rss", tmp, str(rounds)))
        row = step_memory(Path(tmp))
    return [
        ("held between steps (Adam moments, the views and their edge order)", row["held"] / MB),
        ("added by the step until its backward starts", row["added"] / MB),
        (f"of which the {row['nodes']} tape nodes' values", row["values"] / MB),
        ("of which arrays the backward rules hold besides those values", row["rules"] / MB),
        ("of which other arrays of the step", row["other"] / MB),
        ("peak during the backward, above what it starts with", row["backward_peak"] / MB),
        ("peak of the step, above what is held between steps", row["step_peak"] / MB),
        (f"`ru_maxrss` after the benchmark's set-ups and {rounds} rounds", rss),
    ]


def main(argv: list[str]) -> None:
    if argv[:1] == ["--inputs"]:
        write_inputs(Path(argv[1]), tuple(map(int, argv[2:])))
        return
    if argv[:1] == ["--rss"]:
        print(json.dumps(rss_replica(Path(argv[1]), int(argv[2]))))
        return
    counts = tuple(map(int, argv)) if argv else M_DATA
    print("| what | MB |\n| --- | --- |")
    for what, mb in table(counts):
        print(f"| {what} | {mb:.1f} |")


if __name__ == "__main__":
    main(sys.argv[1:])
