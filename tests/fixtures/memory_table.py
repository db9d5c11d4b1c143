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
MB are 2**20 bytes. The process's peak RSS is the benchmark's `peak_rss_mb`
(`perfbench/`), which repeats the steps over many runs.
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from scdkit import trainkit
from scdkit.diffcore import DiffNode
from scdkit.synth import make_synthetic, write_synthetic

M_DATA = (5000, 300, 30)
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


def table(counts=M_DATA) -> list[tuple[str, float]]:
    """The table's rows: (what, MB)."""
    with tempfile.TemporaryDirectory() as tmp:
        write_synthetic(tmp, make_synthetic(*counts, seed=0))
        row = step_memory(Path(tmp))
    return [
        ("held between steps (Adam moments, the views and their edge order)", row["held"] / MB),
        ("added by the step until its backward starts", row["added"] / MB),
        (f"of which the {row['nodes']} tape nodes' values", row["values"] / MB),
        ("of which arrays the backward rules hold besides those values", row["rules"] / MB),
        ("of which other arrays of the step", row["other"] / MB),
        ("peak during the backward, above what it starts with", row["backward_peak"] / MB),
        ("peak of the step, above what is held between steps", row["step_peak"] / MB),
    ]


def main(argv: list[str]) -> None:
    counts = tuple(map(int, argv)) if argv else M_DATA
    print("| what | MB |\n| --- | --- |")
    for what, mb in table(counts):
        print(f"| {what} | {mb:.1f} |")


if __name__ == "__main__":
    main(sys.argv[1:])
